#include "ftspm/core/energy_hybrid_mapper.h"

#include <algorithm>
#include <vector>

#include "ftspm/util/error.h"

namespace ftspm {

MappingPlan determine_energy_hybrid_mapping(const SpmLayout& layout,
                                            const Program& program,
                                            const ProgramProfile& profile,
                                            const EnergyHybridConfig& config) {
  FTSPM_REQUIRE(profile.blocks.size() == program.block_count(),
                "profile does not match program");
  FTSPM_REQUIRE(config.write_share_threshold >= 0.0 &&
                    config.write_share_threshold <= 1.0,
                "write-share threshold out of [0,1]");

  RegionId i_region = kNoRegion;
  RegionId nvm_region = kNoRegion;
  std::vector<RegionId> sram_regions;  // larger first, filled in order
  for (RegionId r = 0; r < layout.region_count(); ++r) {
    const SpmRegionSpec& spec = layout.region(r);
    if (spec.space == SpmSpace::Instruction) {
      FTSPM_REQUIRE(i_region == kNoRegion,
                    "expected a single instruction region");
      i_region = r;
    } else if (spec.tech.soft_error_immune) {
      FTSPM_REQUIRE(nvm_region == kNoRegion,
                    "expected a single NVM data region");
      nvm_region = r;
    } else {
      sram_regions.push_back(r);
    }
  }
  FTSPM_REQUIRE(i_region != kNoRegion && nvm_region != kNoRegion,
                "layout lacks instruction or NVM data regions");
  std::stable_sort(sram_regions.begin(), sram_regions.end(),
                   [&](RegionId a, RegionId b) {
                     return layout.region(a).data_bytes >
                            layout.region(b).data_bytes;
                   });

  std::vector<BlockMapping> mappings(program.block_count());
  for (std::size_t i = 0; i < mappings.size(); ++i)
    mappings[i] = BlockMapping{static_cast<BlockId>(i), kNoRegion,
                               MappingReason::Mapped};

  auto density = [&](BlockId id) {
    return static_cast<double>(profile.blocks[id].accesses()) /
           static_cast<double>(program.block(id).size_words());
  };

  // --- code: hottest-first into the I-SPM ----------------------------
  std::vector<BlockId> code;
  for (std::size_t i = 0; i < program.block_count(); ++i)
    if (program.block(static_cast<BlockId>(i)).is_code())
      code.push_back(static_cast<BlockId>(i));
  std::stable_sort(code.begin(), code.end(), [&](BlockId a, BlockId b) {
    return density(a) > density(b);
  });
  std::uint64_t i_used = 0;
  const std::uint64_t i_cap = layout.region(i_region).data_bytes;
  for (BlockId id : code) {
    const std::uint64_t size = program.block(id).size_bytes;
    if (size > i_cap) {
      mappings[id].reason = MappingReason::TooLarge;
    } else if (i_used + size <= i_cap) {
      mappings[id].region = i_region;
      i_used += size;
    } else {
      mappings[id].reason = MappingReason::CodeCapacity;
    }
  }

  // --- data: split by write share, pack by access density ------------
  std::vector<BlockId> to_nvm, to_sram;
  for (std::size_t i = 0; i < program.block_count(); ++i) {
    const Block& blk = program.block(static_cast<BlockId>(i));
    if (!blk.is_data()) continue;
    const BlockProfile& bp = profile.blocks[i];
    const double share =
        bp.accesses() > 0
            ? static_cast<double>(bp.writes) /
                  static_cast<double>(bp.accesses())
            : 0.0;
    (share > config.write_share_threshold ? to_sram : to_nvm)
        .push_back(static_cast<BlockId>(i));
  }
  auto by_density = [&](std::vector<BlockId>& v) {
    std::stable_sort(v.begin(), v.end(), [&](BlockId a, BlockId b) {
      return density(a) > density(b);
    });
  };
  by_density(to_nvm);
  by_density(to_sram);

  std::uint64_t nvm_used = 0;
  const std::uint64_t nvm_cap = layout.region(nvm_region).data_bytes;
  for (BlockId id : to_nvm) {
    const std::uint64_t size = program.block(id).size_bytes;
    if (size <= nvm_cap && nvm_used + size <= nvm_cap) {
      mappings[id].region = nvm_region;
      nvm_used += size;
    } else {
      mappings[id].reason = size > nvm_cap ? MappingReason::TooLarge
                                           : MappingReason::NoSramRoom;
    }
  }

  std::vector<std::uint64_t> sram_used(sram_regions.size(), 0);
  for (BlockId id : to_sram) {
    const std::uint64_t size = program.block(id).size_bytes;
    bool placed = false;
    for (std::size_t s = 0; s < sram_regions.size() && !placed; ++s) {
      const std::uint64_t cap = layout.region(sram_regions[s]).data_bytes;
      if (size <= cap && sram_used[s] + size <= cap) {
        mappings[id].region = sram_regions[s];
        sram_used[s] += size;
        placed = true;
      }
    }
    if (!placed) {
      // Spill read-intensive-enough leftovers into spare NVM space.
      if (size <= nvm_cap && nvm_used + size <= nvm_cap) {
        mappings[id].region = nvm_region;
        nvm_used += size;
      } else {
        mappings[id].reason = MappingReason::NoSramRoom;
      }
    }
  }

  return MappingPlan(layout, std::move(mappings));
}

}  // namespace ftspm
