#include "core/split_setup.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/compiled_plan.hpp"
#include "core/strategy.hpp"

namespace hetcomm::core {
namespace {

class SplitSetupTest : public ::testing::Test {
 protected:
  Topology topo_{presets::lassen(4)};  // ppn=40, gpn=4
};

TEST_F(SplitSetupTest, SmallVolumesConglomeratePerNodePair) {
  // Lines 12-13: max receive volume below the cap => one message per pair.
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 500);   // node0 -> node1
  p.add(1, 5, 300);   // node0 -> node1
  p.add(0, 8, 200);   // node0 -> node2
  const SplitSetup setup = split_setup(p, topo_, /*cap=*/16384);
  EXPECT_EQ(setup.chunks.size(), 2u);  // (0,1) and (0,2)
  std::map<std::pair<int, int>, std::int64_t> vol;
  for (const SplitChunk& c : setup.chunks) vol[{c.src_node, c.dst_node}] = c.bytes;
  EXPECT_EQ((vol[{0, 1}]), 800);
  EXPECT_EQ((vol[{0, 2}]), 200);
}

TEST_F(SplitSetupTest, LargeVolumesSplitAtCap) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 10000);  // node0 -> node1, > cap
  const SplitSetup setup = split_setup(p, topo_, /*cap=*/4096);
  // total/PPN = 250 < cap, so the effective cap stays 4096 => 3 chunks.
  ASSERT_EQ(setup.chunks.size(), 3u);
  std::int64_t total = 0;
  for (const SplitChunk& c : setup.chunks) {
    EXPECT_LE(c.bytes, 4096);
    total += c.bytes;
  }
  EXPECT_EQ(total, 10000);
}

TEST_F(SplitSetupTest, CapRaisedWhenChunksWouldExceedPpn) {
  // Lines 14-17: cap rises to ceil(total / PPN) when needed.
  CommPattern p(topo_.num_gpus());
  const std::int64_t vol = 40LL * 4096 * 10;  // would be 400 chunks at cap
  p.add(0, 4, vol);
  const SplitSetup setup = split_setup(p, topo_, /*cap=*/4096);
  const SplitNodeInfo& info = setup.node_info.at(1);
  EXPECT_EQ(info.effective_cap, (vol + 39) / 40);
  EXPECT_LE(static_cast<int>(setup.chunks.size()), topo_.ppn());
}

TEST_F(SplitSetupTest, NodeInfoMatchesTable1Definitions) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 700);    // node0 -> node1
  p.add(8, 5, 900);    // node2 -> node1
  p.add(12, 6, 100);   // node3 -> node1
  const SplitSetup setup = split_setup(p, topo_, 16384);
  const SplitNodeInfo& info = setup.node_info.at(1);
  EXPECT_EQ(info.total_in_recv_vol, 1700);
  EXPECT_EQ(info.max_in_recv_size, 900);
  EXPECT_EQ(info.num_in_nodes, 3);
}

TEST_F(SplitSetupTest, ChunkSlicesPartitionFlows) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 3000);
  p.add(1, 5, 2000);
  p.add(2, 6, 1500);
  const SplitSetup setup = split_setup(p, topo_, /*cap=*/1024);
  std::map<std::pair<int, int>, std::int64_t> flow_bytes;
  for (const SplitChunk& c : setup.chunks) {
    std::int64_t chunk_total = 0;
    for (const FlowSlice& s : c.slices) {
      flow_bytes[{s.src_gpu, s.dst_gpu}] += s.bytes;
      chunk_total += s.bytes;
    }
    EXPECT_EQ(chunk_total, c.bytes);
  }
  EXPECT_EQ((flow_bytes[{0, 4}]), 3000);
  EXPECT_EQ((flow_bytes[{1, 5}]), 2000);
  EXPECT_EQ((flow_bytes[{2, 6}]), 1500);
}

TEST_F(SplitSetupTest, RecvAssignmentDescendingFromRankZero) {
  // Line 18: largest chunk to local rank 0, next to 1, ...
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 5000);
  p.add(8, 5, 9000);
  p.add(12, 6, 1000);
  const SplitSetup setup = split_setup(p, topo_, 16384);
  std::vector<const SplitChunk*> inbound = setup.recv_chunks(1);
  ASSERT_EQ(inbound.size(), 3u);
  // Find assignment by size.
  std::map<std::int64_t, int> rank_by_size;
  for (const SplitChunk* c : inbound) {
    rank_by_size[c->bytes] = topo_.rank_location(c->recv_rank).local_rank;
  }
  EXPECT_EQ(rank_by_size.at(9000), 0);
  EXPECT_EQ(rank_by_size.at(5000), 1);
  EXPECT_EQ(rank_by_size.at(1000), 2);
}

TEST_F(SplitSetupTest, SendAssignmentDescendingFromLastRank) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 5000);   // node0 -> node1
  p.add(0, 8, 9000);   // node0 -> node2
  p.add(0, 12, 1000);  // node0 -> node3
  const SplitSetup setup = split_setup(p, topo_, 16384);
  std::map<std::int64_t, int> rank_by_size;
  for (const SplitChunk* c : setup.send_chunks(0)) {
    rank_by_size[c->bytes] = topo_.rank_location(c->send_rank).local_rank;
  }
  const int ppn = topo_.ppn();
  EXPECT_EQ(rank_by_size.at(9000), ppn - 1);
  EXPECT_EQ(rank_by_size.at(5000), ppn - 2);
  EXPECT_EQ(rank_by_size.at(1000), ppn - 3);
}

TEST_F(SplitSetupTest, AssignmentsWrapAroundPpn) {
  // More chunks than processes: assignment cycles.
  const Topology small(MachineShape{2, 1, 1, 2});  // ppn=2
  CommPattern p(small.num_gpus());
  p.add(0, 1, 10000);
  const SplitSetup setup = split_setup(p, small, /*cap=*/1024);
  // total/PPN = 5000 > cap => effective cap 5000 => 2 chunks on 2 ranks.
  EXPECT_EQ(setup.node_info.at(1).effective_cap, 5000);
  EXPECT_EQ(setup.chunks.size(), 2u);
  std::set<int> senders, receivers;
  for (const SplitChunk& c : setup.chunks) {
    senders.insert(c.send_rank);
    receivers.insert(c.recv_rank);
  }
  EXPECT_EQ(senders.size(), 2u);
  EXPECT_EQ(receivers.size(), 2u);
}

TEST_F(SplitSetupTest, EveryChunkHasAssignedEndpointsOnCorrectNodes) {
  CommPattern p(topo_.num_gpus());
  for (int g = 0; g < topo_.num_gpus(); ++g) {
    p.add(g, (g + 5) % topo_.num_gpus(), 2500 * (g + 1));
  }
  const SplitSetup setup = split_setup(p, topo_, 4096);
  for (const SplitChunk& c : setup.chunks) {
    ASSERT_GE(c.send_rank, 0);
    ASSERT_GE(c.recv_rank, 0);
    EXPECT_EQ(topo_.node_of_rank(c.send_rank), c.src_node);
    EXPECT_EQ(topo_.node_of_rank(c.recv_rank), c.dst_node);
  }
}

TEST_F(SplitSetupTest, InvalidCapThrows) {
  CommPattern p(topo_.num_gpus());
  EXPECT_THROW((void)split_setup(p, topo_, 0), std::invalid_argument);
  EXPECT_THROW((void)split_setup(p, topo_, -4), std::invalid_argument);
}

TEST_F(SplitSetupTest, IntranodeTrafficProducesNoChunks) {
  CommPattern p(topo_.num_gpus());
  p.add(0, 1, 100000);
  p.add(0, 2, 100000);
  const SplitSetup setup = split_setup(p, topo_, 4096);
  EXPECT_TRUE(setup.chunks.empty());
  EXPECT_TRUE(setup.node_info.empty());
}

TEST_F(SplitSetupTest, MultiGibFlowsConservePayloadAndCompile) {
  // A slice's payload share multiplies two multi-GiB sizes (and so does the
  // dedup spread over flows): past ~3 GiB that product leaves int64.
  constexpr std::int64_t kGiB = std::int64_t{1} << 30;
  CommPattern p(topo_.num_gpus());
  p.add(0, 4, 4 * kGiB);
  p.add(0, 5, 5 * kGiB + 3);
  p.add(1, 8, 6 * kGiB + 1);
  p.add(9, 2, 4 * kGiB);
  p.add(13, 6, 7 * kGiB);
  p.set_node_dedup(0, 1, 7 * kGiB);  // wire volume below payload
  const std::pair<int, int> flows[] = {{0, 4}, {0, 5}, {1, 8}, {9, 2}, {13, 6}};
  for (const std::int64_t cap : {std::int64_t{1} << 20, kGiB}) {
    const SplitSetup setup = split_setup(p, topo_, cap);
    std::map<std::pair<int, int>, std::int64_t> payload;
    for (const SplitChunk& c : setup.chunks) {
      EXPECT_GE(c.bytes, 0);
      for (const FlowSlice& s : c.slices) {
        EXPECT_GE(s.bytes, 0) << s.src_gpu << "->" << s.dst_gpu;
        EXPECT_GE(s.payload_bytes, 0) << s.src_gpu << "->" << s.dst_gpu;
        payload[{s.src_gpu, s.dst_gpu}] += s.payload_bytes;
      }
    }
    for (const auto& [src, dst] : flows) {
      EXPECT_EQ((payload[{src, dst}]), p.bytes(src, dst))
          << src << "->" << dst << " cap " << cap;
    }
  }
  const ParamSet params = lassen_params();
  for (const StrategyKind kind : {StrategyKind::SplitMD, StrategyKind::SplitDD}) {
    const CommPlan plan = build_plan(p, topo_, params, {kind, MemSpace::Host});
    EXPECT_NO_THROW((void)CompiledPlan(plan, topo_, params)) << to_string(kind);
  }
}

}  // namespace
}  // namespace hetcomm::core
