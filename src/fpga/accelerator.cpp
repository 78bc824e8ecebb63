#include "fpga/accelerator.hpp"

#include <stdexcept>

#include "walk/walk_batch.hpp"

namespace seqge::fpga {

Accelerator::Accelerator(std::size_t num_nodes,
                         const AcceleratorConfig& cfg, Rng& rng)
    : cfg_(cfg),
      num_nodes_(num_nodes),
      core_(cfg.max_slots(),
            {cfg.dims, cfg.mu, cfg.p0, cfg.reset_p_per_walk}),
      perf_(cfg),
      dram_beta_(num_nodes * cfg.dims),
      slot_of_(num_nodes, -1) {
  cfg_.validate();
  // Same init distribution as the CPU models, quantized to Q8.24.
  const double r = 0.5 / static_cast<double>(cfg_.dims);
  for (auto& v : dram_beta_) {
    v = CoreFixed::from_double(rng.uniform(-r, r));
  }
}

std::uint32_t Accelerator::slot_for(NodeId node) {
  if (slot_of_[node] >= 0) return static_cast<std::uint32_t>(slot_of_[node]);
  const auto slot = static_cast<std::uint32_t>(slot_nodes_.size());
  if (slot >= cfg_.max_slots()) {
    throw std::runtime_error("Accelerator: BRAM slot overflow");
  }
  slot_of_[node] = static_cast<std::int32_t>(slot);
  slot_nodes_.push_back(node);
  return slot;
}

void Accelerator::release_slots() {
  for (NodeId node : slot_nodes_) slot_of_[node] = -1;
  slot_nodes_.clear();
}

Accelerator::WalkRun Accelerator::run_one_walk(
    std::span<const NodeId> walk, std::span<const NodeId> negatives,
    bool untrain) {
  // Slot assignment. Negatives that also appear in the walk share the
  // walk node's slot so their deferred updates accumulate into one row.
  walk_slots_.clear();
  for (NodeId v : walk) walk_slots_.push_back(slot_for(v));
  neg_slots_.clear();
  for (NodeId v : negatives) neg_slots_.push_back(slot_for(v));

  // DMA-in: gather the touched beta rows from DRAM into BRAM slots.
  for (std::size_t s = 0; s < slot_nodes_.size(); ++s) {
    const NodeId node = slot_nodes_[s];
    core_.load_beta_slot(
        s, {dram_beta_.data() + static_cast<std::size_t>(node) * cfg_.dims,
            cfg_.dims});
  }

  // PL side: run Algorithm 2 (or its mirror) bit-accurately.
  WalkRun run{0.0, slot_nodes_.size(), true};
  if (untrain) {
    run.ok = core_.untrain_walk(walk_slots_, cfg_.window, neg_slots_);
  } else {
    run.sq_err = core_.train_walk(walk_slots_, cfg_.window, neg_slots_);
  }

  // DMA-out: scatter updated rows back to DRAM.
  for (std::size_t s = 0; run.ok && s < slot_nodes_.size(); ++s) {
    const NodeId node = slot_nodes_[s];
    auto src = core_.beta_slot(s);
    std::copy(src.begin(), src.end(),
              dram_beta_.begin() + static_cast<std::size_t>(node) * cfg_.dims);
  }
  release_slots();
  return run;
}

double Accelerator::train_walk(std::span<const NodeId> walk,
                               std::size_t window,
                               const NegativeSampler& sampler,
                               std::size_t ns, NegativeMode /*mode*/,
                               Rng& rng) {
  if (walk.size() < window) return 0.0;
  if (window != cfg_.window) {
    throw std::invalid_argument("Accelerator: window != configured window");
  }

  // PS side: pre-sample one shared negative set for the walk (Sec. 3.2).
  sampler.sample_batch(rng, ns, walk[0], negatives_);

  const WalkRun run = run_one_walk(walk, negatives_);

  // Simulated time from the cycle/DMA models (full-length walks match
  // the calibrated Tables 3/4 point; short walks scale by context and
  // slot counts).
  last_timing_ =
      perf_.walk_timing(walk.size() - window + 1, run.distinct_slots);
  simulated_us_ += last_timing_.total_us;
  ++walks_;
  return run.sq_err;
}

double Accelerator::train_batch(const WalkBatch& batch, std::size_t window,
                                const NegativeSampler& sampler,
                                std::size_t ns, NegativeMode /*mode*/) {
  if (window != cfg_.window) {
    throw std::invalid_argument("Accelerator: window != configured window");
  }

  // PS side, pass 1: materialize every walk's shared negatives — the
  // batch's pre-sampled set when present, otherwise drawn from the
  // walk's own seed stream exactly as train_walk would.
  batch_negatives_.clear();
  batch_neg_off_.assign(1, 0);
  for (std::size_t i = 0; i < batch.num_walks(); ++i) {
    const auto walk = batch.walk(i);
    if (walk.size() >= window) {
      if (batch.has_negatives(i)) {
        const auto negs = batch.negatives(i);
        batch_negatives_.insert(batch_negatives_.end(), negs.begin(),
                                negs.end());
      } else {
        Rng rng(batch.train_seed(i));
        sampler.sample_batch(rng, ns, walk[0], negatives_);
        batch_negatives_.insert(batch_negatives_.end(), negatives_.begin(),
                                negatives_.end());
      }
    }
    batch_neg_off_.push_back(
        static_cast<std::uint32_t>(batch_negatives_.size()));
  }

  // Pass 2: DMA accounting. BRAM holds at most max_slots() beta rows,
  // so the batch streams through it in burst groups — maximal runs of
  // consecutive walks whose *union* of touched rows still fits the
  // BRAM. Rows shared within a group transfer once per direction; a
  // row needed again in a later group is re-fetched, exactly as the
  // capacity-limited hardware would have to.
  struct BurstGroup {
    std::size_t contexts = 0;
    std::size_t id_words = 0;
    std::size_t walks = 0;
    std::size_t distinct = 0;
  };
  std::vector<BurstGroup> groups;
  BurstGroup cur;
  const std::size_t cap = cfg_.max_slots();
  auto mark = [&](NodeId v) {
    if (slot_of_[v] < 0) {
      slot_of_[v] = 0;
      slot_nodes_.push_back(v);
    }
  };
  std::size_t effective_walks = 0;
  for (std::size_t i = 0; i < batch.num_walks(); ++i) {
    const auto walk = batch.walk(i);
    if (walk.size() < window) continue;
    ++effective_walks;
    const std::span<const NodeId> negs{
        batch_negatives_.data() + batch_neg_off_[i],
        batch_neg_off_[i + 1] - batch_neg_off_[i]};

    const std::size_t checkpoint = slot_nodes_.size();
    for (NodeId v : walk) mark(v);
    for (NodeId v : negs) mark(v);
    if (cur.walks > 0 && slot_nodes_.size() > cap) {
      // This walk overflows the group's BRAM residency: unwind its
      // marks, close the group, and start a fresh one with this walk.
      while (slot_nodes_.size() > checkpoint) {
        slot_of_[slot_nodes_.back()] = -1;
        slot_nodes_.pop_back();
      }
      cur.distinct = slot_nodes_.size();
      groups.push_back(cur);
      cur = {};
      release_slots();
      for (NodeId v : walk) mark(v);
      for (NodeId v : negs) mark(v);
    }
    ++cur.walks;
    cur.contexts += walk.size() - window + 1;
    cur.id_words += walk.size() + negs.size();
  }
  if (cur.walks > 0) {
    cur.distinct = slot_nodes_.size();
    groups.push_back(cur);
  }
  release_slots();

  // Pass 3: run each walk through the core — same per-walk commit order
  // as the unbatched path, so results are bit-identical.
  double sq_err = 0.0;
  for (std::size_t i = 0; i < batch.num_walks(); ++i) {
    const auto walk = batch.walk(i);
    if (walk.size() < window) continue;
    const std::span<const NodeId> negs{
        batch_negatives_.data() + batch_neg_off_[i],
        batch_neg_off_[i + 1] - batch_neg_off_[i]};
    sq_err += run_one_walk(walk, negs).sq_err;
  }

  if (!groups.empty()) {
    // One descriptor chain + completion interrupt for the whole batch:
    // the per-walk control overhead is charged once, on the first group.
    WalkTiming total{};
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const WalkTiming t =
          perf_.batch_timing(groups[g].contexts, groups[g].distinct,
                             groups[g].id_words, /*include_overhead=*/g == 0);
      total.dma_in_us += t.dma_in_us;
      total.compute_us += t.compute_us;
      total.dma_out_us += t.dma_out_us;
      total.overhead_us += t.overhead_us;
      total.total_us += t.total_us;
      total.context_cycles = t.context_cycles;
      total.total_cycles += t.total_cycles;
      total.bytes_in += t.bytes_in;
      total.bytes_out += t.bytes_out;
    }
    last_timing_ = total;
    simulated_us_ += total.total_us;
    walks_ += effective_walks;
  }
  return sq_err;
}

bool Accelerator::untrain_batch(const WalkBatch& batch, std::size_t window,
                                const NegativeSampler& /*sampler*/,
                                std::size_t ns, NegativeMode /*mode*/) {
  if (window != cfg_.window) {
    throw std::invalid_argument("Accelerator: window != configured window");
  }
  for (std::size_t i = batch.num_walks(); i-- > 0;) {
    const auto walk = batch.walk(i);
    if (walk.size() < window) continue;  // never trained
    if (ns > 0 && !batch.has_negatives(i)) return false;
    const WalkRun run = run_one_walk(walk, batch.negatives(i), true);
    last_timing_ =
        perf_.walk_timing(walk.size() - window + 1, run.distinct_slots);
    simulated_us_ += last_timing_.total_us;
    if (!run.ok) return false;
  }
  return true;
}

MatrixF Accelerator::beta_as_float() const {
  MatrixF beta(num_nodes_, cfg_.dims);
  for (std::size_t v = 0; v < num_nodes_; ++v) {
    auto dst = beta.row(v);
    const CoreFixed* src = dram_beta_.data() + v * cfg_.dims;
    for (std::size_t d = 0; d < cfg_.dims; ++d) {
      dst[d] = static_cast<float>(src[d].to_double());
    }
  }
  return beta;
}

void Accelerator::load_beta(const MatrixF& beta_t) {
  if (beta_t.rows() != num_nodes_ || beta_t.cols() != cfg_.dims) {
    throw std::invalid_argument("Accelerator::load_beta: shape mismatch");
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) {
    const auto src = beta_t.row(v);
    CoreFixed* dst = dram_beta_.data() + v * cfg_.dims;
    for (std::size_t d = 0; d < cfg_.dims; ++d) {
      dst[d] = CoreFixed::from_double(static_cast<double>(src[d]));
    }
  }
}

MatrixF Accelerator::extract_embedding() const {
  MatrixF emb = beta_as_float();
  const auto mu = static_cast<float>(cfg_.mu);
  for (float& v : emb.flat()) v = mu * v;
  return emb;
}

void Accelerator::extract_rows(std::span<const NodeId> nodes,
                               MatrixF& out) const {
  const auto mu = static_cast<float>(cfg_.mu);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto dst = out.row(i);
    const CoreFixed* src =
        dram_beta_.data() + static_cast<std::size_t>(nodes[i]) * cfg_.dims;
    for (std::size_t d = 0; d < cfg_.dims; ++d) {
      dst[d] = mu * static_cast<float>(src[d].to_double());
    }
  }
}

}  // namespace seqge::fpga
