// The campaign request spec shared by `ftspm_tool campaign`, the serve
// daemon, its client library, and the load injector.
//
// A CampaignSpec is the one description of a campaign run: the CLI
// parses its flags into one, the daemon decodes one from the wire, and
// both execute it through run_campaign_spec() — the one sharded engine
// (`exec::run_recovery_campaign_sharded`) — and build the ledger record
// through campaign_spec_record(). That is what makes the
// served-vs-one-shot determinism contract hold by construction: same
// spec + same seed => bit-identical counters and an equivalent record,
// whether the run came through a socket or argv.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "ftspm/exec/parallel_campaign.h"
#include "ftspm/fault/injector.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/obs/ledger.h"
#include "ftspm/util/json.h"

namespace ftspm::serve {

/// Upper bounds of the integer spec fields, enforced by the wire
/// decoder and by the CLI's flag parser alike.
inline constexpr std::uint64_t kMaxSpecCount = std::uint64_t{1} << 53;
inline constexpr std::uint64_t kMaxSpecSize = std::uint64_t{1} << 40;
inline constexpr std::uint64_t kMaxSpecInterleave = 1u << 16;
inline constexpr std::uint64_t kMaxSpecShards = 4096;
inline constexpr std::uint64_t kMaxSpecRefetchWords = std::uint64_t{1} << 32;

/// One campaign request. Field names and defaults match the
/// `ftspm_tool campaign` flags (plus an explicit seed, which the CLI
/// pins to the library default).
struct CampaignSpec {
  std::string protection = "secded";  ///< parity|secded|none
  std::uint64_t strikes = 100'000;
  std::uint64_t seed = CampaignConfig{}.seed;
  std::uint64_t size = 8192;          ///< Surface payload bytes.
  std::uint32_t interleave = 1;
  double node = 40.0;                 ///< Process node (nm).
  double occupancy = 1.0;
  std::uint32_t shards = 1;           ///< Determinism knob; >= 1.
  bool recover = false;
  std::uint64_t scrub_interval = 0;
  double dirty_fraction = 0.25;
  std::uint64_t refetch_words = 64;
  /// Strikes between streamed heartbeat frames (0 = none). Reporting
  /// only: never touches the RNG or the counters.
  std::uint64_t heartbeat_strikes = 0;
};

/// Throws InvalidArgument when a field is out of range (unknown
/// protection, zero strikes/shards, occupancy outside [0,1], ...).
void validate_spec(const CampaignSpec& spec);

/// Decodes the "spec" object of a campaign request. Unknown keys are
/// rejected (a typoed field must not silently fall back to a default);
/// missing keys keep their defaults. Throws InvalidArgument.
CampaignSpec spec_from_json(const JsonValue& value);

/// Encodes `spec` as the wire "spec" object (round-trips through
/// spec_from_json).
std::string spec_to_json(const CampaignSpec& spec);

/// Execution context threaded onto a spec run: the daemon's shared
/// pool, per-request cancel flag and heartbeat sink, and the CLI's
/// file-backed settings. None of it reaches the counters, and none of
/// it travels on the wire. All optional — the defaults run the spec
/// standalone on one job.
struct CampaignRunHooks {
  exec::ThreadPool* pool = nullptr;
  const std::atomic<bool>* cancel = nullptr;
  /// Worker threads when `pool` is null (0 = hardware concurrency).
  std::uint32_t jobs = 1;
  /// Invoked every spec.heartbeat_strikes strikes (aggregated across
  /// shards) with (done, total). Must not throw.
  std::function<void(std::uint64_t, std::uint64_t)> progress;
  /// Wall-clock per-shard attribution, forwarded to
  /// exec::ExecConfig::shard_span: called after the run joins, once
  /// per shard in shard order, with the shard's task start/finish in
  /// ns since the runner launched the tasks. Reporting only — the
  /// daemon turns these into child spans of the request's wall trace.
  std::function<void(std::uint32_t shard, std::uint64_t start_ns,
                     std::uint64_t end_ns)>
      shard_span;
  /// Checkpoint/resume files and the per-shard strikes between
  /// checkpoint writes (exec::ExecConfig semantics; static campaigns
  /// only — a recovery spec rejects them).
  std::string checkpoint_path;
  std::string resume_path;
  std::uint64_t checkpoint_interval = exec::ExecConfig{}.checkpoint_interval;
  /// The wall-clock NDJSON heartbeat file (off unless out_path is set).
  exec::HeartbeatConfig heartbeat;
  /// Address buckets per region of the sensitivity grid; 0 = no grid.
  std::uint32_t sensitivity_buckets = 0;
};

/// What one spec run produced.
struct CampaignOutcome {
  RecoveryResult result;
  /// True when the spec engaged the recovery pipeline (recover or
  /// scrubbing); selects the recovery block of the ledger record.
  bool recovery_active = false;
  /// False when the run was cancelled before finishing its strikes.
  bool complete = true;
  std::uint32_t used_jobs = 1;
  std::uint32_t used_shards = 1;
  double wall_ms = 0.0;
  double strikes_per_sec = 0.0;
  /// The shard-order merged sensitivity grid; inactive unless
  /// CampaignRunHooks::sensitivity_buckets was set.
  SensitivityGrid sensitivity;
};

/// Runs the spec. Counters depend only on (seed, strikes, shards,
/// protection/geometry/policy) — never on the pool, jobs, or hooks.
CampaignOutcome run_campaign_spec(const CampaignSpec& spec,
                                  const CampaignRunHooks& hooks = {});

/// The outcome as a ledger record (id left empty for the appender).
obs::LedgerRecord campaign_spec_record(const CampaignSpec& spec,
                                       const CampaignOutcome& outcome);

}  // namespace ftspm::serve
