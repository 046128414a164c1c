#include "check/protocols.hpp"

#include <string>

#include "ba/harness.hpp"
#include "common/check.hpp"

namespace mewc::check {

namespace {

// Enum-indexed driver-name table. This is the single point tying the check
// subsystem's dense Protocol enum (stable across campaign/replay files) to
// the harness driver registry; everything else delegates to the driver.
constexpr const char* kDriverNames[] = {"bb", "weak-ba", "strong-ba",
                                        "fallback", "ds-bb"};

}  // namespace

const harness::ProtocolDriver& protocol_driver(Protocol p) {
  const auto idx = static_cast<std::size_t>(p);
  MEWC_CHECK(idx < std::size(kDriverNames));
  const harness::ProtocolDriver* d = harness::find_driver(kDriverNames[idx]);
  MEWC_CHECK_MSG(d != nullptr, "protocol missing from driver registry");
  return *d;
}

const char* protocol_name(Protocol p) { return protocol_driver(p).name(); }

std::optional<Protocol> parse_protocol(std::string_view name) {
  for (Protocol p : all_protocols()) {
    if (name == protocol_name(p)) return p;
  }
  return std::nullopt;
}

const std::vector<Protocol>& all_protocols() {
  static const std::vector<Protocol> kAll = {
      Protocol::kBb, Protocol::kWeakBa, Protocol::kStrongBa,
      Protocol::kFallback, Protocol::kDsBb};
  return kAll;
}

std::string protocol_names_joined(std::string_view sep) {
  std::string out;
  for (Protocol p : all_protocols()) {
    if (!out.empty()) out += sep;
    out += protocol_name(p);
  }
  return out;
}

}  // namespace mewc::check
