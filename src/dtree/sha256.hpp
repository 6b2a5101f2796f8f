// Self-contained SHA-256 (FIPS 180-4) for model content digests.
//
// The model-identity gates (pdt tree diff, CI) compare trees by hash, so
// the digest must be stable across platforms and toolchains and must not
// pull in an external crypto dependency. This is the plain single-shot
// byte-oriented implementation — model payloads are a few hundred KB at
// most, so streaming is unnecessary.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace pdt::dtree {

/// Raw 32-byte SHA-256 of `data`.
[[nodiscard]] std::array<std::uint8_t, 32> sha256(std::string_view data);

/// Lowercase hex rendering of sha256(data) — the digest format every
/// pdt-model-v1 document and gate uses.
[[nodiscard]] std::string sha256_hex(std::string_view data);

}  // namespace pdt::dtree
