#include "engine/distributed_graph.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"

namespace sgp {

namespace {

// Half-edge record: the partition an incident edge lives on plus which
// directions it counts for at this endpoint, packed with the low bits of
// the endpoint's id so the build streams one uint32 per endpoint. For
// undirected graphs every incident edge is both an in- and an out-edge of
// each endpoint, so one record carries both increments.
constexpr uint32_t kIn = 1;
constexpr uint32_t kOut = 2;

// The first pass scatters into at most 2^6 blocks, so its write streams
// stay cached; with a few hundred streams most records missed again.
constexpr int kBlockCountBits = 6;

}  // namespace

DistributedGraph::DistributedGraph(const Graph& graph,
                                   const Partitioning& partitioning)
    : graph_(&graph), k_(partitioning.k) {
  SGP_CHECK(partitioning.vertex_to_partition.size() == graph.num_vertices());
  SGP_CHECK(partitioning.edge_to_partition.size() == graph.num_edges());
  SGP_CHECK(k_ > 0 && k_ < (1u << 30));  // records pack it into 30 bits
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();
  master_ = partitioning.vertex_to_partition;
  edges_per_partition_.assign(k_, 0);

  // A record is [vertex low bits | partition | flags]: the partition takes
  // the bits k needs, and the vertex's offset in its block the rest.
  const int part_bits = static_cast<int>(std::bit_width(k_ - 1));
  const int block_bits =
      std::min(30 - part_bits,
               std::max(0, static_cast<int>(std::bit_width(n)) -
                               kBlockCountBits));
  const PartitionId part_mask = (PartitionId{1} << part_bits) - 1;
  const VertexId low_mask = (VertexId{1} << block_bits) - 1;
  // Two shifts, so none reaches 32 bits when the partition takes all 30.
  auto pack = [&](VertexId v, PartitionId p, uint32_t flags) {
    return ((((v & low_mask) << part_bits) | p) << 2) | flags;
  };
  auto offset_in_block = [&](uint32_t rec) { return rec >> 2 >> part_bits; };

  // Pass 1: group the records by block of 2^block_bits consecutive
  // vertices (count → prefix-sum → scatter, in edge-id order). A block's
  // writes are sequential, so the scatter streams instead of missing the
  // cache on every record as a scatter by vertex does.
  const size_t num_blocks = (static_cast<size_t>(n) >> block_bits) + 1;
  std::vector<uint64_t> block_offsets(num_blocks + 1, 0);
  for (const Edge& edge : graph.edges()) {
    ++block_offsets[(edge.src >> block_bits) + 1];
    ++block_offsets[(edge.dst >> block_bits) + 1];
  }
  size_t max_block = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    max_block = std::max<size_t>(max_block, block_offsets[b + 1]);
    block_offsets[b + 1] += block_offsets[b];
  }
  std::vector<uint32_t> records(block_offsets[num_blocks]);
  {
    std::vector<uint64_t> cursor(block_offsets.begin(),
                                 block_offsets.end() - 1);
    const uint32_t src_flags = graph.directed() ? kOut : (kIn | kOut);
    const uint32_t dst_flags = graph.directed() ? kIn : (kIn | kOut);
    for (EdgeId e = 0; e < m; ++e) {
      const Edge& edge = graph.edges()[e];
      const PartitionId p = partitioning.edge_to_partition[e];
      ++edges_per_partition_[p];
      records[cursor[edge.src >> block_bits]++] = pack(edge.src, p, src_flags);
      records[cursor[edge.dst >> block_bits]++] = pack(edge.dst, p, dst_flags);
    }
  }

  // Pass 2, one block at a time: a stable counting sort by vertex into a
  // cache-resident scratch, then one sweep over each vertex's records. The
  // (in, out) counts tally into a dense k-wide scratch, packed as
  // in | out << 32 so a record is one add, and each partition's first
  // touch is noted without a branch (touched[nt] = p; nt += tally[p] == 0).
  // A master with no incident edge joins the list last with empty counts,
  // so Replicas(v) is never empty. Swapping the master to the front of
  // the first-touch list gives the order Replicas(v) documents; appending
  // the replicas resets exactly the slots the vertex touched.
  std::vector<uint32_t> sorted(max_block);
  std::vector<uint64_t> vertex_offsets((size_t{1} << block_bits) + 1);
  std::vector<uint64_t> tally(k_, 0);
  std::vector<PartitionId> touched(static_cast<size_t>(k_) + 1);
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  replicas_.reserve(n);
  for (size_t b = 0; b < num_blocks; ++b) {
    const VertexId first = static_cast<VertexId>(b << block_bits);
    const VertexId width = static_cast<VertexId>(
        std::min<uint64_t>(uint64_t{1} << block_bits, n - first));
    const uint32_t* block = records.data() + block_offsets[b];
    const uint64_t size = block_offsets[b + 1] - block_offsets[b];
    std::fill(vertex_offsets.begin(), vertex_offsets.begin() + width + 1, 0);
    for (uint64_t i = 0; i < size; ++i) {
      ++vertex_offsets[offset_in_block(block[i]) + 1];
    }
    for (VertexId j = 0; j < width; ++j) {
      vertex_offsets[j + 1] += vertex_offsets[j];
    }
    for (uint64_t i = 0; i < size; ++i) {
      sorted[vertex_offsets[offset_in_block(block[i])]++] = block[i];
    }
    // The scatter advanced each offset to the next vertex's start.
    uint64_t begin = 0;
    for (VertexId j = 0; j < width; ++j) {
      const uint64_t end = vertex_offsets[j];
      size_t nt = 0;
      for (uint64_t i = begin; i < end; ++i) {
        const uint32_t rec = sorted[i];
        const PartitionId p = (rec >> 2) & part_mask;
        touched[nt] = p;
        nt += tally[p] == 0;
        tally[p] += (rec & kIn) | (static_cast<uint64_t>(rec & kOut) << 31);
      }
      begin = end;
      const VertexId v = first + j;
      const PartitionId master = master_[v];
      size_t master_slot = 0;
      if (tally[master] == 0) {
        master_slot = nt;
        touched[nt++] = master;
      } else {
        while (touched[master_slot] != master) ++master_slot;
      }
      std::swap(touched[0], touched[master_slot]);
      for (size_t t = 0; t < nt; ++t) {
        const PartitionId p = touched[t];
        replicas_.push_back({p, static_cast<uint32_t>(tally[p]),
                             static_cast<uint32_t>(tally[p] >> 32)});
        tally[p] = 0;
      }
      offsets_[v + 1] = replicas_.size();
    }
  }

  replication_factor_ =
      n == 0 ? 0
             : static_cast<double>(replicas_.size()) / static_cast<double>(n);
}

}  // namespace sgp
