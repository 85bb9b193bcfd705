#include "simnet/route.hpp"

#include <sstream>

namespace sanmap::simnet {

std::string to_string(const Route& route) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < route.size(); ++i) {
    if (i != 0) {
      oss << '.';
    }
    if (route[i] >= 0) {
      oss << '+';
    }
    oss << route[i];
  }
  return oss.str();
}

Route reversed(const Route& route) {
  Route out;
  out.reserve(route.size());
  for (auto it = route.rbegin(); it != route.rend(); ++it) {
    out.push_back(-*it);
  }
  return out;
}

Route extended(const Route& route, Turn turn) {
  Route out = route;
  out.push_back(turn);
  return out;
}

Route loopback_probe(const Route& prefix) {
  Route out;
  out.reserve(2 * prefix.size() + 1);
  out.assign(prefix.begin(), prefix.end());
  out.push_back(0);
  for (auto it = prefix.rbegin(); it != prefix.rend(); ++it) {
    out.push_back(-*it);
  }
  return out;
}

bool turns_in_range(const Route& route) {
  for (const Turn t : route) {
    if (t < kMinTurn || t > kMaxTurn) {
      return false;
    }
  }
  return true;
}

}  // namespace sanmap::simnet
