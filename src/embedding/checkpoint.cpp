#include "embedding/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "embedding/oselm_dataflow.hpp"
#include "embedding/oselm_skipgram.hpp"
#include "embedding/skipgram_sgd.hpp"
#include "fpga/accelerator.hpp"

namespace seqge {

namespace {

constexpr char kMagic[] = "SEQGE1\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("checkpoint: truncated header");
  return v;
}

void write_matrix(std::ostream& os, const MatrixF& m) {
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(float)));
}

void read_matrix(std::istream& is, MatrixF& m) {
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!is) throw std::runtime_error("checkpoint: truncated payload");
}

/// Payload bytes the header announces; throws if the count (or the
/// matrix sizes behind it) does not fit a std::streamsize.
std::uint64_t payload_bytes(const CheckpointHeader& h) {
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::streamsize>::max());
  std::uint64_t beta = 0;
  std::uint64_t p = 0;
  std::uint64_t total = 0;
  if (__builtin_mul_overflow(std::uint64_t{h.rows}, h.dims, &beta) ||
      __builtin_mul_overflow(beta, sizeof(float), &beta) ||
      __builtin_mul_overflow(std::uint64_t{h.dims}, h.dims, &p) ||
      __builtin_mul_overflow(p, sizeof(float), &p) ||
      __builtin_add_overflow(beta, h.has_covariance ? p : 0, &total) ||
      total > kMax) {
    throw std::runtime_error("checkpoint: header sizes overflow");
  }
  return total;
}

/// Bytes left in `is`, or UINT64_MAX when the stream cannot seek (its
/// reads still fail cleanly on truncation).
std::uint64_t remaining_bytes(std::istream& is) {
  constexpr auto kUnknown = std::numeric_limits<std::uint64_t>::max();
  const std::streampos pos = is.tellg();
  if (pos == std::streampos(-1)) return kUnknown;
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  is.seekg(pos);
  return end == std::streampos(-1) ? kUnknown
                                   : static_cast<std::uint64_t>(end - pos);
}

}  // namespace

void write_checkpoint(std::ostream& os, const MatrixF& beta,
                      const MatrixF* covariance) {
  os.write(kMagic, static_cast<std::streamsize>(kMagicLen));
  write_u64(os, beta.cols());
  write_u64(os, beta.rows());
  const char kind = covariance != nullptr ? 1 : 0;
  os.write(&kind, 1);
  write_matrix(os, beta);
  if (covariance != nullptr) {
    if (covariance->rows() != beta.cols() ||
        covariance->cols() != beta.cols()) {
      throw std::invalid_argument("checkpoint: covariance shape mismatch");
    }
    write_matrix(os, *covariance);
  }
  if (!os) throw std::runtime_error("checkpoint: write failed");
}

CheckpointHeader read_checkpoint_header(std::istream& is) {
  char magic[kMagicLen];
  is.read(magic, static_cast<std::streamsize>(kMagicLen));
  if (!is || std::memcmp(magic, kMagic, kMagicLen) != 0) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  CheckpointHeader h;
  h.dims = read_u64(is);
  h.rows = read_u64(is);
  char kind = 0;
  is.read(&kind, 1);
  if (!is) throw std::runtime_error("checkpoint: truncated header");
  if (kind != 0 && kind != 1) {
    throw std::runtime_error("checkpoint: bad payload kind");
  }
  h.has_covariance = kind == 1;
  if (h.dims == 0 || h.rows == 0) {
    throw std::runtime_error("checkpoint: zero dimension");
  }
  return h;
}

void read_checkpoint_payload(std::istream& is, const CheckpointHeader& h,
                             MatrixF& beta, MatrixF* covariance) {
  if (covariance != nullptr && !h.has_covariance) {
    throw std::runtime_error("checkpoint: covariance requested but absent");
  }
  // Nothing is allocated for a payload the stream cannot hold, and the
  // outputs change only once the whole payload has been read.
  if (payload_bytes(h) > remaining_bytes(is)) {
    throw std::runtime_error("checkpoint: payload longer than the stream");
  }
  MatrixF b(h.rows, h.dims);
  read_matrix(is, b);
  MatrixF p;
  if (h.has_covariance) {
    p = MatrixF(h.dims, h.dims);
    read_matrix(is, p);
  }
  beta = std::move(b);
  if (covariance != nullptr) *covariance = std::move(p);
}

void save_model(std::ostream& os, const OselmSkipGram& model) {
  write_checkpoint(os, model.beta_transposed(), &model.covariance());
}

void save_model(std::ostream& os, const OselmSkipGramDataflow& model) {
  write_checkpoint(os, model.beta_transposed(), &model.covariance());
}

void save_model(std::ostream& os, const SkipGramSGD& model) {
  // The SGD baseline's trainable state is both matrices; store W_in as
  // beta and W_out as the square... W_out is n x dims too, so it cannot
  // ride in the covariance slot. Persist W_in only — enough to serve the
  // embedding; resuming SGD training warm-starts the output vectors at
  // zero, the same as word2vec does.
  write_checkpoint(os, model.embeddings(), nullptr);
}

void save_model(std::ostream& os, const fpga::Accelerator& model) {
  const MatrixF beta = model.beta_as_float();
  write_checkpoint(os, beta, nullptr);
}

namespace {

template <typename Model>
void load_into(std::istream& is, Model& model, bool want_covariance) {
  const CheckpointHeader h = read_checkpoint_header(is);
  if (h.dims != model.dims() || h.rows != model.num_nodes()) {
    throw std::runtime_error("checkpoint: shape mismatch with model");
  }
  if (want_covariance && !h.has_covariance) {
    throw std::runtime_error("checkpoint: missing covariance for OS-ELM");
  }
  read_checkpoint_payload(is, h, model.beta_transposed(),
                          h.has_covariance ? &model.covariance() : nullptr);
}

}  // namespace

void load_model(std::istream& is, OselmSkipGram& model,
                bool require_covariance) {
  load_into(is, model, require_covariance);
}

void load_model(std::istream& is, OselmSkipGramDataflow& model,
                bool require_covariance) {
  load_into(is, model, require_covariance);
}

void load_model(std::istream& is, fpga::Accelerator& model) {
  const CheckpointHeader h = read_checkpoint_header(is);
  if (h.dims != model.dims() || h.rows != model.num_nodes()) {
    throw std::runtime_error("checkpoint: shape mismatch with model");
  }
  MatrixF beta;
  MatrixF covariance;  // consumed so the stream ends positioned correctly
  read_checkpoint_payload(is, h, beta,
                          h.has_covariance ? &covariance : nullptr);
  model.load_beta(beta);
}

namespace {

/// fsync the file or directory at `path`; throws on failure.
void sync_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), O_RDONLY | flags);
  const bool ok = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!ok) throw std::runtime_error("checkpoint: cannot fsync " + path);
}

}  // namespace

void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("checkpoint: cannot open " + tmp);
    write(os);
    os.close();
    if (!os) throw std::runtime_error("checkpoint: write failed: " + tmp);
    sync_path(tmp, 0);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                               path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  const std::string dir = std::filesystem::path(path).parent_path().string();
  sync_path(dir.empty() ? "." : dir, O_DIRECTORY);
}

void save_model(const std::string& path, const OselmSkipGram& model) {
  write_file_atomically(path,
                        [&](std::ostream& os) { save_model(os, model); });
}

void load_model(const std::string& path, OselmSkipGram& model) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  load_model(is, model);
}

}  // namespace seqge
