#include "common/parse.hpp"

#include <cstdio>

namespace ssm {

std::string_view trimBlanks(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t'))
    text.remove_prefix(1);
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t'))
    text.remove_suffix(1);
  return text;
}

std::vector<std::string_view> splitNonEmpty(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t at = text.find(sep, start);
    if (at == std::string_view::npos) at = text.size();
    if (at > start) out.push_back(text.substr(start, at - start));
    start = at + 1;
  }
  return out;
}

std::string printDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace ssm
