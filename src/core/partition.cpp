#include "ftspm/core/partition.h"

#include <algorithm>
#include <numeric>

#include "ftspm/util/error.h"

namespace ftspm {

double PartitionResult::weighted_vulnerability() const {
  double num = 0.0, den = 0.0;
  for (const TaskPartition& t : tasks) {
    num += t.weight * t.result.avf.vulnerability();
    den += t.weight;
  }
  return den > 0.0 ? num / den : 0.0;
}

double PartitionResult::total_dynamic_energy_pj() const {
  double e = 0.0;
  for (const TaskPartition& t : tasks)
    e += t.result.run.spm_dynamic_energy_pj();
  return e;
}

namespace {

/// Largest-remainder apportionment of `total_bytes` into granules.
std::vector<std::uint64_t> split_bytes(const std::vector<double>& demands,
                                       std::uint64_t total_bytes,
                                       const PartitionConfig& config) {
  const std::uint64_t granule = config.granule_bytes;
  const std::uint64_t granules = total_bytes / granule;
  FTSPM_REQUIRE(granules >= (config.guarantee_floor ? demands.size() : 1),
                "region too small for the task set at this granule");

  const double demand_sum =
      std::accumulate(demands.begin(), demands.end(), 0.0);
  std::vector<std::uint64_t> shares(demands.size(), 0);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const double fraction =
        demand_sum > 0.0 ? demands[i] / demand_sum
                         : 1.0 / static_cast<double>(demands.size());
    shares[i] = static_cast<std::uint64_t>(fraction *
                                           static_cast<double>(granules));
    if (config.guarantee_floor)
      shares[i] = std::max<std::uint64_t>(shares[i], 1);
    assigned += shares[i];
  }
  // Reconcile rounding (either direction) against the largest-demand
  // task, keeping floors intact.
  std::size_t biggest = 0;
  for (std::size_t i = 1; i < demands.size(); ++i)
    if (demands[i] > demands[biggest]) biggest = i;
  while (assigned > granules) {
    // Shave from the biggest share that stays above the floor.
    std::size_t victim = biggest;
    for (std::size_t i = 0; i < shares.size(); ++i)
      if (shares[i] > shares[victim]) victim = i;
    FTSPM_CHECK(shares[victim] > 1, "cannot satisfy floors");
    --shares[victim];
    --assigned;
  }
  shares[biggest] += granules - assigned;

  for (std::uint64_t& s : shares) s *= granule;
  return shares;
}

}  // namespace

std::vector<FtspmDimensions> partition_dimensions(
    const std::vector<double>& demands, const FtspmDimensions& total,
    const PartitionConfig& config) {
  FTSPM_REQUIRE(!demands.empty(), "no tasks to partition for");
  for (double d : demands)
    FTSPM_REQUIRE(d >= 0.0, "demands must be non-negative");
  FTSPM_REQUIRE(config.granule_bytes >= 8 && config.granule_bytes % 8 == 0,
                "granule must be a positive multiple of 8");

  const std::vector<std::uint64_t> ispm =
      split_bytes(demands, total.ispm_bytes, config);
  const std::vector<std::uint64_t> stt =
      split_bytes(demands, total.dspm_stt_bytes, config);
  const std::vector<std::uint64_t> ecc =
      split_bytes(demands, total.dspm_secded_bytes, config);
  const std::vector<std::uint64_t> parity =
      split_bytes(demands, total.dspm_parity_bytes, config);

  std::vector<FtspmDimensions> out(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    out[i] = total;  // inherit interleave / cell choices
    out[i].ispm_bytes = ispm[i];
    out[i].dspm_stt_bytes = stt[i];
    out[i].dspm_secded_bytes = ecc[i];
    out[i].dspm_parity_bytes = parity[i];
  }
  return out;
}

PartitionResult partition_and_evaluate(const std::vector<TaskSpec>& tasks,
                                       const TechnologyLibrary& lib,
                                       const MdaConfig& mda,
                                       const FtspmDimensions& total,
                                       const PartitionConfig& config) {
  FTSPM_REQUIRE(!tasks.empty(), "no tasks to evaluate");
  std::vector<double> demands;
  std::vector<ProgramProfile> profiles;
  demands.reserve(tasks.size());
  profiles.reserve(tasks.size());
  for (const TaskSpec& task : tasks) {
    FTSPM_REQUIRE(task.workload != nullptr, "task workload is null");
    FTSPM_REQUIRE(task.weight > 0.0, "task weight must be positive");
    profiles.push_back(profile_workload(*task.workload));
    demands.push_back(task.weight *
                      static_cast<double>(profiles.back().total_accesses));
  }

  const std::vector<FtspmDimensions> dims =
      partition_dimensions(demands, total, config);

  PartitionResult result;
  result.tasks.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const StructureEvaluator evaluator(lib, mda, dims[i]);
    TaskPartition part{tasks[i].workload->program.name(), tasks[i].weight,
                       demands[i], dims[i],
                       evaluator.evaluate_ftspm(*tasks[i].workload,
                                                profiles[i])};
    result.tasks.push_back(std::move(part));
  }
  return result;
}

}  // namespace ftspm
