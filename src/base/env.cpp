#include "base/env.hpp"

namespace pp {

const char* to_string(Scale s) {
  switch (s) {
    case Scale::kQuick:
      return "quick";
    case Scale::kStandard:
      return "standard";
    case Scale::kFull:
      return "full";
  }
  return "?";
}

int seeds_for(Scale s) {
  switch (s) {
    case Scale::kQuick:
      return 1;
    case Scale::kStandard:
      return 3;
    case Scale::kFull:
      return 5;
  }
  return 1;
}

}  // namespace pp
