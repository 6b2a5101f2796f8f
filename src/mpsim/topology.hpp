// Processor ranks of the simulated machine.
//
// The paper assumes a hypercube interconnect (Section 4.1). The simulator
// needs no address arithmetic for it: a processor partition is its
// ascending rank list (mpsim::Group), halving one splits that list in
// two, and a collective over p members costs ceil(log2 p) hypercube
// rounds (mpsim::ceil_log2).
#pragma once

namespace pdt::mpsim {

using Rank = int;

}  // namespace pdt::mpsim
