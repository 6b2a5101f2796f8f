#include "data/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace pdt::data {

namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace

void save_csv(const Dataset& ds, std::ostream& out) {
  const Schema& s = ds.schema();
  for (int a = 0; a < s.num_attributes(); ++a) {
    const Attribute& attr = s.attr(a);
    out << attr.name << ':';
    if (attr.is_categorical()) {
      out << "cat:" << attr.cardinality;
      if (attr.ordered) out << ":o";
    } else {
      out << "cont";
    }
    out << ',';
  }
  out << "class:cat:" << s.num_classes() << '\n';

  out.precision(17);
  for (std::size_t row = 0; row < ds.num_rows(); ++row) {
    for (int a = 0; a < s.num_attributes(); ++a) {
      if (s.attr(a).is_categorical()) {
        out << ds.cat(a, row);
      } else {
        out << ds.cont(a, row);
      }
      out << ',';
    }
    out << ds.label(row) << '\n';
  }
}

void save_csv_file(const Dataset& ds, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_csv(ds, out);
}

Dataset load_csv(std::istream& in) {
  std::string header;
  if (!std::getline(in, header)) {
    throw std::runtime_error("csv: empty input");
  }
  const auto cols = split(header, ',');
  if (cols.size() < 2) throw std::runtime_error("csv: header too short");

  std::vector<Attribute> attrs;
  int num_classes = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const auto parts = split(cols[i], ':');
    const bool is_class = i + 1 == cols.size();
    if (is_class) {
      if (parts.size() < 3 || parts[1] != "cat") {
        throw std::runtime_error("csv: malformed class column");
      }
      num_classes = std::stoi(parts[2]);
      continue;
    }
    if (parts.size() >= 3 && parts[1] == "cat") {
      attrs.push_back(Attribute::categorical(
          parts[0], std::stoi(parts[2]),
          parts.size() >= 4 && parts[3] == "o"));
    } else if (parts.size() >= 2 && parts[1] == "cont") {
      attrs.push_back(Attribute::continuous(parts[0]));
    } else {
      throw std::runtime_error("csv: malformed column spec: " + cols[i]);
    }
  }

  Dataset ds(Schema(std::move(attrs), num_classes));
  std::string line;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split(line, ',');
    if (fields.size() != cols.size()) {
      throw std::runtime_error("csv: wrong field count in row: " + line);
    }
    try {
      const std::size_t row = ds.add_row(std::stoi(fields.back()));
      for (int a = 0; a < ds.num_attributes(); ++a) {
        const auto& f = fields[static_cast<std::size_t>(a)];
        if (ds.schema().attr(a).is_categorical()) {
          ds.set_cat(a, row, std::stoi(f));
        } else {
          ds.set_cont(a, row, std::stod(f));
        }
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("csv line " + std::to_string(line_no) +
                                  ": " + e.what());
    }
  }
  return ds;
}

Dataset load_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return load_csv(in);
}

}  // namespace pdt::data
