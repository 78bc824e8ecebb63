#include "embedding/oselm_dataflow.hpp"

namespace seqge {

OselmSkipGramDataflow::OselmSkipGramDataflow(std::size_t num_nodes,
                                             const Options& opts, Rng& rng)
    : Alg2Core(num_nodes, opts) {
  const double r = 0.5 / static_cast<double>(opts.dims);
  beta_transposed().fill_uniform(rng, -r, r);
}

double OselmSkipGramDataflow::train_walk(std::span<const NodeId> walk,
                                         std::size_t window,
                                         const NegativeSampler& sampler,
                                         std::size_t ns, Rng& rng) {
  sampler.sample_batch(rng, ns, walk.empty() ? 0 : walk[0],
                       scratch_negatives_);
  return train_walk(walk, window, scratch_negatives_);
}

MatrixF OselmSkipGramDataflow::extract_embedding() const {
  MatrixF emb = beta_transposed();
  const auto mu = static_cast<float>(this->mu());
  for (float& v : emb.flat()) v = mu * v;
  return emb;
}

void OselmSkipGramDataflow::extract_rows(std::span<const NodeId> nodes,
                                         std::span<float> out) const {
  const auto mu = static_cast<float>(this->mu());
  float* dst = out.data();
  for (NodeId v : nodes) {
    for (float x : beta_transposed().row(v)) *dst++ = mu * x;
  }
}

}  // namespace seqge
