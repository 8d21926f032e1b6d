#include "collectives/contracts.hpp"

#include <string>

#include "collectives/allgatherv.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"

namespace tarr::collectives {

using analyze::Contract;
using analyze::OriginSet;

namespace {

Contract base(std::string name, int p, int buf_blocks, int num_origins,
              const std::vector<Rank>& oldrank) {
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == p,
               "contract: oldrank size mismatch");
  TARR_REQUIRE(is_permutation_of_iota(oldrank),
               "contract: oldrank is not a permutation");
  Contract c;
  c.name = std::move(name);
  c.num_ranks = p;
  c.buf_blocks = buf_blocks;
  c.num_origins = num_origins;
  return c;
}

/// Add one required set {o} per origin o < n; returns the set indices.
std::vector<int> add_singles(Contract& c, int n) {
  std::vector<int> set_of(static_cast<std::size_t>(n));
  for (int o = 0; o < n; ++o)
    set_of[o] = c.add_set(OriginSet::single(c.num_origins, o));
  return set_of;
}

/// The common allgather verdict: every rank's slot b holds exactly
/// original rank b's block.
void expect_allgather_output(Contract& c, int p) {
  const std::vector<int> set_of = add_singles(c, p);
  for (Rank j = 0; j < p; ++j)
    for (int b = 0; b < p; ++b) c.expect(j, b, set_of[b]);
}

/// The full universe {0, .., n-1}: what a reduction over n origins holds.
OriginSet all_origins(int n) {
  OriginSet s = OriginSet::empty_set(n);
  for (int o = 0; o < n; ++o) s.toggle(o);
  return s;
}

/// Seed tag of reduction origin o: nonzero and distinct per origin, so no
/// contribution drops out of (or cancels another in) an XOR.
std::uint32_t reduction_tag(int o) {
  return 0x1000u + 37u * static_cast<std::uint32_t>(o);
}

const char* tree_name(TreeAlgo algo) {
  return algo == TreeAlgo::Linear ? "linear" : "binomial";
}

}  // namespace

Contract contract_allgather(int p, int buf_blocks, AllgatherAlgo algo,
                            const std::vector<Rank>& oldrank) {
  Contract c = base(std::string("allgather/") + to_string(algo), p,
                    buf_blocks, p, oldrank);
  switch (algo) {
    case AllgatherAlgo::RecursiveDoubling:
      // seed_allgather_inputs: new rank j's own slot j.
      for (Rank j = 0; j < p; ++j) c.seed(j, j, oldrank[j]);
      break;
    case AllgatherAlgo::Ring:
      // Own block seeded straight at its original-rank slot.
      for (Rank j = 0; j < p; ++j) c.seed(j, oldrank[j], oldrank[j]);
      break;
    case AllgatherAlgo::Bruck:
      // Bruck keeps the accumulating window at slot 0.
      for (Rank j = 0; j < p; ++j) c.seed(j, 0, oldrank[j]);
      break;
  }
  expect_allgather_output(c, p);
  return c;
}

Contract contract_hier_allgather(int p, int buf_blocks,
                                 const std::vector<Rank>& oldrank,
                                 bool pipelined) {
  Contract c = base(pipelined ? "hier-allgather/pipelined" : "hier-allgather",
                    p, buf_blocks, p, oldrank);
  for (Rank j = 0; j < p; ++j) c.seed(j, j, oldrank[j]);  // seed_allgather_inputs
  expect_allgather_output(c, p);
  return c;
}

Contract contract_allgatherv(const std::vector<int>& counts,
                             const std::vector<Rank>& oldrank) {
  const int p = static_cast<int>(counts.size());
  const std::vector<int> displs = allgatherv_displacements(counts);
  Contract c = base("allgatherv/ring", p, displs[p], p, oldrank);
  for (Rank j = 0; j < p; ++j) {
    const Rank o = oldrank[j];
    for (int b = 0; b < counts[o]; ++b) c.seed(j, displs[o] + b, o);
  }
  const std::vector<int> set_of = add_singles(c, p);
  for (Rank j = 0; j < p; ++j)
    for (Rank r = 0; r < p; ++r)
      for (int b = 0; b < counts[r]; ++b)
        c.expect(j, displs[r] + b, set_of[r]);
  return c;
}

Contract contract_gather(int p, int buf_blocks, TreeAlgo algo,
                         const std::vector<Rank>& oldrank) {
  Contract c = base(std::string("gather/") + tree_name(algo), p, buf_blocks,
                    p, oldrank);
  if (algo == TreeAlgo::Linear) {
    for (Rank j = 0; j < p; ++j) c.seed(j, oldrank[j], oldrank[j]);
  } else {
    for (Rank j = 0; j < p; ++j) c.seed(j, j, oldrank[j]);
  }
  const std::vector<int> set_of = add_singles(c, p);
  for (int b = 0; b < p; ++b) c.expect(0, b, set_of[b]);
  return c;
}

Contract contract_bcast(int p, int buf_blocks, TreeAlgo algo) {
  Contract c = base(std::string("bcast/") + tree_name(algo), p, buf_blocks,
                    1, identity_permutation(p));
  c.seed(0, 0, 0, kBcastMessageTag);
  const int message = c.add_set(OriginSet::single(c.num_origins, 0));
  for (Rank j = 0; j < p; ++j) c.expect(j, 0, message);
  return c;
}

Contract contract_bcast_scatter_allgather(int p, int buf_blocks,
                                          AllgatherAlgo ag) {
  Contract c = base(std::string("bcast-scatter-allgather/") + to_string(ag),
                    p, buf_blocks, p, identity_permutation(p));
  for (int b = 0; b < p; ++b) c.seed(0, b, b);  // root's segmented message
  expect_allgather_output(c, p);
  return c;
}

Contract contract_scatter(int p, int buf_blocks, TreeAlgo algo,
                          const std::vector<Rank>& oldrank) {
  Contract c = base(std::string("scatter/") + tree_name(algo), p, buf_blocks,
                    p, oldrank);
  for (int r = 0; r < p; ++r) c.seed(0, r, r);  // root buffer, original order
  const std::vector<int> set_of = add_singles(c, p);
  for (Rank j = 0; j < p; ++j) c.expect(j, j, set_of[oldrank[j]]);
  return c;
}

Contract contract_alltoall(int p, int buf_blocks, AlltoallAlgo algo,
                           const std::vector<Rank>& oldrank) {
  Contract c = base(std::string("alltoall/") +
                        (algo == AlltoallAlgo::Rotation ? "rotation"
                                                        : "pairwise-xor"),
                    p, buf_blocks, p * p, oldrank);
  // Origin s*p + r: the block original rank s addresses to original rank r.
  for (Rank j = 0; j < p; ++j)
    for (Rank k = 0; k < p; ++k)
      c.seed(j, k, oldrank[j] * p + oldrank[k],
             alltoall_tag(oldrank[j], oldrank[k]));
  // Receive region in original-rank order: slot p+i carries what original
  // rank i sent to this process.
  const std::vector<int> set_of = add_singles(c, p * p);
  for (Rank j = 0; j < p; ++j)
    for (Rank i = 0; i < p; ++i)
      c.expect(j, p + i, set_of[i * p + oldrank[j]]);
  return c;
}

Contract contract_allreduce_rd(int p, int buf_blocks) {
  Contract c = base("allreduce/rd", p, buf_blocks, p,
                    identity_permutation(p));
  for (Rank r = 0; r < p; ++r) c.seed(r, 0, r, reduction_tag(r));
  const int sum = c.add_set(all_origins(p));
  for (Rank r = 0; r < p; ++r) c.expect(r, 0, sum);
  return c;
}

Contract contract_allreduce_rabenseifner(int p, int buf_blocks) {
  Contract c = base("allreduce/rabenseifner", p, buf_blocks, p * p,
                    identity_permutation(p));
  for (Rank r = 0; r < p; ++r)
    for (int b = 0; b < p; ++b)
      c.seed(r, b, r * p + b, reduction_tag(r * p + b));
  std::vector<int> sum_of(static_cast<std::size_t>(p));
  for (int b = 0; b < p; ++b) {
    OriginSet want = OriginSet::empty_set(p * p);
    for (Rank q = 0; q < p; ++q) want.toggle(q * p + b);
    sum_of[b] = c.add_set(std::move(want));
  }
  for (Rank r = 0; r < p; ++r)
    for (int b = 0; b < p; ++b) c.expect(r, b, sum_of[b]);
  return c;
}

Contract contract_reduce(int p, int buf_blocks) {
  Contract c = base("reduce/binomial", p, buf_blocks, p,
                    identity_permutation(p));
  for (Rank r = 0; r < p; ++r) c.seed(r, 0, r, reduction_tag(r));
  c.expect(0, 0, c.add_set(all_origins(p)));
  return c;
}

void check_output(const simmpi::Engine& eng, const Contract& c) {
  TARR_REQUIRE(eng.mode() == simmpi::ExecMode::Data,
               c.name + " contract check requires a Data-mode engine");
  TARR_REQUIRE(eng.comm().size() == c.num_ranks &&
                   eng.buf_blocks() == c.buf_blocks,
               c.name + " contract check: the engine has " +
                   std::to_string(eng.comm().size()) + " ranks x " +
                   std::to_string(eng.buf_blocks()) +
                   " blocks but the contract " +
                   std::to_string(c.num_ranks) + " x " +
                   std::to_string(c.buf_blocks));
  c.validate();
  std::vector<std::uint32_t> tag_of(static_cast<std::size_t>(c.num_origins));
  std::vector<char> seeded(static_cast<std::size_t>(c.num_origins), 0);
  for (const Contract::Seed& s : c.seeds) {
    tag_of[s.origin] = s.tag;
    seeded[s.origin] = 1;
  }
  // Each required set's tag: the XOR of its origins' seed tags.
  std::vector<std::uint32_t> want(c.sets.size(), 0);
  for (std::size_t i = 0; i < c.sets.size(); ++i) {
    for (const int o : c.sets[i].members()) {
      TARR_REQUIRE(seeded[o], c.name + " contract requires origin " +
                                  std::to_string(o) + " but never seeds it");
      want[i] ^= tag_of[o];
    }
  }
  if (c.expected.empty()) return;
  for (Rank r = 0; r < c.num_ranks; ++r) {
    for (int b = 0; b < c.buf_blocks; ++b) {
      const int set =
          c.expected[static_cast<std::size_t>(r) * c.buf_blocks + b];
      if (set < 0) continue;
      const std::uint32_t got = eng.block(r, b);
      TARR_REQUIRE(got == want[set],
                   c.name + " contract violated: rank " + std::to_string(r) +
                       " block " + std::to_string(b) + " carries tag " +
                       std::to_string(got) + ", expected " +
                       std::to_string(want[set]));
    }
  }
}

}  // namespace tarr::collectives
