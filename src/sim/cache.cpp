#include "sim/cache.hpp"

namespace brickdl {

namespace {

template <typename Block>
void init_blocks(std::vector<u64>* storage, i64 num_sets, int ways) {
  using Tag = typename Block::TagType;
  storage->assign((static_cast<size_t>(num_sets) * sizeof(Block) + 7) / 8, 0);
  Block* blocks = reinterpret_cast<Block*>(storage->data());
  for (i64 s = 0; s < num_sets; ++s) {
    for (int w = 0; w < ways; ++w) {
      blocks[s].tags[w] = static_cast<Tag>(~Tag{0});
    }
  }
}

}  // namespace

CacheModel::CacheModel(i64 capacity_bytes, int ways, i64 line_bytes)
    : line_bytes_(line_bytes), ways_(ways) {
  BDL_CHECK(capacity_bytes > 0 && ways > 0 && line_bytes > 0);
  BDL_CHECK_MSG(ways <= kMaxWays,
                "associativity above 64 overflows the way masks");
  num_sets_ = capacity_bytes / (ways * line_bytes);
  BDL_CHECK_MSG(num_sets_ > 0, "cache too small for its associativity");
  fastmod_m_ = ~u64{0} / static_cast<u64>(num_sets_) + 1;
  if (ways_ == 4) {
    geometry_ = Geometry::kWays4;
  } else if (ways_ == 16) {
    geometry_ = num_sets_ >= kNarrowTagMinSets ? Geometry::kWays16Narrow
                                               : Geometry::kWays16;
  } else {
    geometry_ = Geometry::kGeneric;
  }
  init_storage();
}

void CacheModel::init_storage() {
  switch (geometry_) {
    case Geometry::kWays4:
      block_bytes_ = sizeof(SetBlock<4, u32>);
      init_blocks<SetBlock<4, u32>>(&storage_, num_sets_, ways_);
      break;
    case Geometry::kWays16:
      block_bytes_ = sizeof(SetBlock<16, u32>);
      init_blocks<SetBlock<16, u32>>(&storage_, num_sets_, ways_);
      break;
    case Geometry::kWays16Narrow:
      block_bytes_ = sizeof(SetBlock<16, u16>);
      init_blocks<SetBlock<16, u16>>(&storage_, num_sets_, ways_);
      break;
    default:
      block_bytes_ = sizeof(SetBlock<kMaxWays, u32>);
      init_blocks<SetBlock<kMaxWays, u32>>(&storage_, num_sets_, ways_);
      break;
  }
}

template <int W, typename Tag>
bool CacheModel::contains_ways(u64 line) const {
  const u32 line32 = check_line(line);
  size_t set;
  u32 quot;
  split_line(line32, &set, &quot);
  const Tag key = make_tag<Tag>(line32, quot);
  const SetBlock<W, Tag>* blk = block<W, Tag>(set);
  const int ways = W == kMaxWays ? ways_ : W;
  for (int w = 0; w < ways; ++w) {
    if (blk->tags[w] == key) return true;
  }
  return false;
}

bool CacheModel::contains(u64 line) const {
  switch (geometry_) {
    case Geometry::kWays4:
      return contains_ways<4, u32>(line);
    case Geometry::kWays16:
      return contains_ways<16, u32>(line);
    case Geometry::kWays16Narrow:
      return contains_ways<16, u16>(line);
    default:
      return contains_ways<kMaxWays, u32>(line);
  }
}

i64 CacheModel::flush(std::vector<u64>* dirty_lines) {
  return flush_visit([dirty_lines](u64 line) {
    if (dirty_lines) dirty_lines->push_back(line);
  });
}

template <int W, typename Tag>
void CacheModel::invalidate_ways(u64 line) {
  const u32 line32 = check_line(line);
  size_t set;
  u32 quot;
  split_line(line32, &set, &quot);
  const Tag key = make_tag<Tag>(line32, quot);
  SetBlock<W, Tag>* blk = block<W, Tag>(set);
  const int ways = W == kMaxWays ? ways_ : W;
  for (int w = 0; w < ways; ++w) {
    if (blk->tags[w] == key) {
      const u64 bit = u64{1} << static_cast<unsigned>(w);
      blk->tags[w] = empty_tag<Tag>();
      blk->valid &= ~bit;
      blk->dirty &= ~bit;
      return;
    }
  }
}

void CacheModel::invalidate(u64 line) {
  switch (geometry_) {
    case Geometry::kWays4:
      invalidate_ways<4, u32>(line);
      break;
    case Geometry::kWays16:
      invalidate_ways<16, u32>(line);
      break;
    case Geometry::kWays16Narrow:
      invalidate_ways<16, u16>(line);
      break;
    default:
      invalidate_ways<kMaxWays, u32>(line);
      break;
  }
}

}  // namespace brickdl
