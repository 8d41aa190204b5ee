// ftspm/exec: the sharded campaign runner.
//
// Drives a set of campaign shards (see shard.h) across a ThreadPool in
// fixed-size chunks, aggregating progress thread-safely and writing
// JSON checkpoints so multi-hour campaigns survive a kill. The runner
// is campaign-kind agnostic: callers supply a chunk function that
// advances one shard's CampaignShardState, and the fault/core layers
// provide the static and temporal kinds on top.
//
// Determinism contract: for a fixed (seed, strikes, shard_count) the
// merged counters are bit-identical across any jobs value, any chunk
// size, and any suspend/resume schedule — each shard's sequence is a
// pure function of its derived seed, and the merge is a plain sum in
// shard order. Only shard_count changes results. There is no separate
// serial engine: ExecConfig{} (one job, one shard) is the serial run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ftspm/exec/shard.h"
#include "ftspm/fault/recovery.h"
#include "ftspm/fault/sensitivity.h"
#include "ftspm/fault/strike_model.h"

namespace ftspm::exec {

class ThreadPool;

/// Opt-in wall-clock liveness stream for long sharded campaigns. An
/// obs::PeriodicWriter thread samples the runner's thread-safe progress
/// aggregation every `interval_ms` and appends one NDJSON heartbeat
/// record (per-shard strikes/sec, completed/total chunks, pool
/// utilization, ETA) to `out_path`. Heartbeats are nondeterministic by
/// design — they carry wall-clock quantities — so they live in their
/// own file and never appear in golden-compared artefacts. Workers only
/// publish relaxed atomic progress stores; the writer never blocks
/// shard completion, and emits at least one record (plus a final one at
/// shutdown) even for runs shorter than the interval.
struct HeartbeatConfig {
  /// NDJSON destination; empty = heartbeat disabled.
  std::string out_path;
  /// Milliseconds between beats (clamped to >= 1).
  std::uint32_t interval_ms = 1000;
  /// Also print a human one-liner per beat to stderr.
  bool stderr_line = false;

  bool enabled() const noexcept { return !out_path.empty(); }
};

/// How to execute a sharded campaign. Results depend only on the shard
/// count (via the shard plan); everything else here is scheduling.
struct ExecConfig {
  /// Worker threads; 0 = hardware concurrency.
  std::uint32_t jobs = 1;
  /// Shard count; 0 = the effective jobs value. Pin this explicitly
  /// when comparing runs across different --jobs settings.
  std::uint32_t shards = 1;
  /// Write per-shard progress to this path (empty = no checkpointing).
  std::string checkpoint_path;
  /// Load progress from this path before running; continues writing to
  /// checkpoint_path, or back to this path when checkpoint_path is
  /// empty.
  std::string resume_path;
  /// Per-shard strikes between checkpoint writes.
  std::uint64_t checkpoint_interval = 1u << 20;
  /// Scheduling granule: strikes a worker hands the chunk engine
  /// between bookkeeping (progress, checkpoint, cancel checks), used
  /// as given — the engines resolve every strike where it lands, so
  /// any granule >= 1 runs the same strikes. Never affects results.
  std::uint64_t chunk_strikes = 1u << 16;
  /// Live telemetry (off unless out_path is set). Never affects
  /// results or deterministic artefacts.
  HeartbeatConfig heartbeat;
  /// Buckets per region of the per-shard sensitivity grids (see
  /// fault/sensitivity.h); 0 disables them. Each shard records into its
  /// own grid and the coordinator merges them in shard order, so the
  /// merged grid is jobs-invariant. A resumed run's grid covers only
  /// the strikes executed by this invocation (grids are not
  /// checkpointed). Never affects campaign counters.
  std::uint32_t sensitivity_buckets = 0;
  /// Run on this caller-owned pool instead of constructing a private
  /// one (the serve daemon schedules every admitted request onto one
  /// shared pool). Non-owning; must outlive the run. When set, `jobs`
  /// is ignored — concurrency is the pool's worker count. Never
  /// affects results: counters depend only on (seed, strikes, shards).
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: workers poll this flag at chunk
  /// granularity and stop scheduling further chunks once it reads
  /// true. A cancelled run writes its final checkpoint and reports
  /// complete() == false. Non-owning; may be flipped from any thread
  /// (a CampaignConfig::progress callback can stop a run at a given
  /// strike count this way).
  const std::atomic<bool>* cancel = nullptr;
  /// Wall-clock shard attribution: when set, each worker stamps its
  /// shard's task start and finish (ns since the runner launched the
  /// tasks) with relaxed atomic stores, and the coordinator invokes
  /// this callback after the join, once per shard in shard order. The
  /// serve daemon turns these stamps into per-shard child spans of a
  /// request's wall-clock trace. Reporting only — wall quantities
  /// never reach the counters, so enabling it cannot perturb results.
  std::function<void(std::uint32_t shard, std::uint64_t start_ns,
                     std::uint64_t end_ns)>
      shard_span;

  std::uint32_t effective_jobs() const noexcept;
  std::uint32_t effective_shards() const noexcept;
};

/// What a sharded run produced. `shard_results` holds per-shard
/// partial counters in shard order (partials when halted).
struct ShardedRun {
  CampaignResult merged;
  bool complete = true;
  std::vector<CampaignResult> shard_results;
  /// Shard-order merge of the per-shard sensitivity grids; inactive
  /// unless ExecConfig::sensitivity_buckets was set.
  SensitivityGrid sensitivity;
};

/// Advances `state` by at most `max_strikes` strikes of `shard`,
/// recording each strike into `grid` (the shard's own sensitivity
/// grid, or nullptr when the run has none). Called concurrently for
/// different shards, never for the same shard; implementations must
/// touch only the shard's own state and grid and shared *read-only*
/// context.
using ShardChunkFn = std::function<void(
    const CampaignShard& shard, CampaignShardState& state,
    std::uint64_t max_strikes, SensitivityGrid* grid)>;

/// Runs the sharded campaign described by (root, exec) with
/// kind-specific chunk execution. `seed_salt` is xored into each
/// shard's seed at generator construction (the temporal campaign's
/// historical salt); `kind` tags checkpoints so a static checkpoint
/// cannot resume a temporal campaign. Root progress callbacks fire
/// with globally aggregated strike counts, monotonically, completion
/// exactly once.
///
/// What every campaign kind shares lives here, not in the chunk
/// function:
///  * grids — when `grid_proto` is active, each shard records into its
///    own copy and the copies merge in shard order into
///    ShardedRun::sensitivity (jobs-invariant);
///  * campaign counters — with observability on, each chunk's strike
///    delta is added to `campaign.strikes` and its due + sdc delta to
///    `campaign.vulnerable` in the shard's delta registry, merged into
///    the root registry in shard order after the join. A resumed run
///    counts only the strikes it executed.
ShardedRun run_sharded_campaign(const CampaignConfig& root,
                                const ExecConfig& exec, std::string_view kind,
                                std::uint64_t seed_salt,
                                const SensitivityGrid& grid_proto,
                                const ShardChunkFn& run_chunk);

/// The static injector campaign (fault/injector.h run_campaign_chunk),
/// sharded. ExecConfig{} — one job, one shard — is the serial run.
ShardedRun run_campaign_sharded(const std::vector<InjectionRegion>& regions,
                                const StrikeMultiplicityModel& strikes,
                                const CampaignConfig& config,
                                const ExecConfig& exec);

/// What a sharded recovery campaign produced: merged strike and
/// recovery counters plus the per-shard partials, all in shard order.
struct RecoveryShardedRun {
  RecoveryResult merged;
  bool complete = true;
  std::vector<RecoveryResult> shard_results;
  /// Shard-order merge of the per-shard sensitivity grids; inactive
  /// unless ExecConfig::sensitivity_buckets was set.
  SensitivityGrid sensitivity;
};

/// The live-array recovery campaign (fault/recovery.h), sharded. Each
/// shard owns a private array image set seeded from its shard seed, so
/// shards stay independent and the merged counters depend only on
/// (seed, strikes, shard_count, policy) — never on --jobs. With
/// `!policy.active()` this delegates to run_campaign_sharded, matching
/// the static campaign bit for bit. Checkpoint/resume is rejected:
/// the array images are not serialized, so a resumed shard could not
/// reconstruct its state.
RecoveryShardedRun run_recovery_campaign_sharded(
    const std::vector<RecoveryRegion>& regions,
    const StrikeMultiplicityModel& strikes, const CampaignConfig& config,
    const RecoveryPolicy& policy, const ExecConfig& exec);

}  // namespace ftspm::exec
