// Protocol naming and round geometry shared by the check subsystem and the
// CLI tools (mewc_sim, mewc_trace, mewc_vopr). Keeping the name table and
// the phase geometry in one place is what prevents the tools from drifting
// apart as protocols are added.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace mewc::harness {
class ProtocolDriver;
}  // namespace mewc::harness

namespace mewc::check {

enum class Protocol {
  kBb,        // adaptive Byzantine Broadcast (Algorithms 1 + 2)
  kWeakBa,    // adaptive weak BA (Algorithms 3 + 4)
  kStrongBa,  // strong binary BA (Algorithm 5)
  kFallback,  // A_fallback standalone
  kDsBb,      // Dolev-Strong BB baseline
};

[[nodiscard]] const char* protocol_name(Protocol p);
[[nodiscard]] std::optional<Protocol> parse_protocol(std::string_view name);
[[nodiscard]] const std::vector<Protocol>& all_protocols();
[[nodiscard]] std::string protocol_names_joined(std::string_view sep = "|");

/// The harness driver backing `p`. All protocol dispatch in the check
/// subsystem and the CLI tools goes through this registry lookup.
[[nodiscard]] const harness::ProtocolDriver& protocol_driver(Protocol p);

}  // namespace mewc::check
