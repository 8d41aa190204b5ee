#include "ftspm/workload/trace.h"

#include "ftspm/util/error.h"
#include "ftspm/util/format.h"

namespace ftspm {

const char* to_string(AccessType type) noexcept {
  switch (type) {
    case AccessType::Fetch: return "fetch";
    case AccessType::Read: return "read";
    case AccessType::Write: return "write";
    case AccessType::CallEnter: return "call-enter";
    case AccessType::CallExit: return "call-exit";
  }
  return "?";
}

std::uint64_t Workload::total_accesses() const noexcept {
  std::uint64_t n = 0;
  for (const auto& e : trace) n += e.accesses();
  return n;
}

std::uint64_t Workload::nominal_cycles() const noexcept {
  std::uint64_t n = 0;
  for (const auto& e : trace) n += e.nominal_cycles();
  return n;
}

void validate_trace(const Program& program,
                    const std::vector<TraceEvent>& trace) {
  const std::vector<Block>& blocks = program.blocks();
  std::int64_t call_depth = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    const auto where = [&] {
      return " (event " + with_commas(static_cast<std::uint64_t>(i)) + ")";
    };
    FTSPM_CHECK(e.block < blocks.size(),
                "trace references unknown block" + where());
    const Block& b = blocks[e.block];
    switch (e.type) {
      case AccessType::Fetch:
        FTSPM_CHECK(b.is_code(), "fetch from non-code block " + b.name + where());
        FTSPM_CHECK(e.offset < b.size_words(),
                    "fetch offset outside block " + b.name + where());
        FTSPM_CHECK(e.repeat >= 1, "empty fetch run" + where());
        break;
      case AccessType::Read:
      case AccessType::Write:
        FTSPM_CHECK(b.is_data(),
                    "data access to code block " + b.name + where());
        FTSPM_CHECK(e.offset < b.size_words(),
                    "data offset outside block " + b.name + where());
        FTSPM_CHECK(e.repeat >= 1, "empty access run" + where());
        break;
      case AccessType::CallEnter:
        FTSPM_CHECK(b.is_code(), "call into non-code block" + where());
        FTSPM_CHECK(e.repeat == 1, "markers must have repeat == 1" + where());
        ++call_depth;
        break;
      case AccessType::CallExit:
        FTSPM_CHECK(b.is_code(), "return from non-code block" + where());
        FTSPM_CHECK(e.repeat == 1, "markers must have repeat == 1" + where());
        --call_depth;
        FTSPM_CHECK(call_depth >= 0, "unbalanced call markers" + where());
        break;
    }
  }
  FTSPM_CHECK(call_depth == 0, "trace ends with open calls");
}

}  // namespace ftspm
