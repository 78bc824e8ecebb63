#pragma once
// Binary checkpointing for trained models. The IoT deployment story of
// the paper (Sec. 1) implies devices that power-cycle: the embedding
// state (beta, and P for the persistent-P variant) must survive
// restarts so sequential training can resume where it left off. Format:
//
//   magic "SEQGE1\n" | dims u64 | rows u64 | payload-kind u8
//   beta (rows x dims f32) [ | P (dims x dims f32) ]
//
// Checkpoints are portable across the CPU models; the FPGA accelerator
// loads/stores through its float conversion (quantizing to Q8.24 on
// load).

#include <functional>
#include <iosfwd>
#include <string>

#include "linalg/matrix.hpp"

namespace seqge {

class OselmSkipGram;
class OselmSkipGramDataflow;
class SkipGramSGD;

namespace fpga {
class Accelerator;
}

struct CheckpointHeader {
  std::size_t dims = 0;
  std::size_t rows = 0;
  bool has_covariance = false;
};

// --- generic matrix payloads -------------------------------------------
void write_checkpoint(std::ostream& os, const MatrixF& beta,
                      const MatrixF* covariance);
[[nodiscard]] CheckpointHeader read_checkpoint_header(std::istream& is);
/// Reads the payload that follows a read_checkpoint_header call.
void read_checkpoint_payload(std::istream& is, const CheckpointHeader& h,
                             MatrixF& beta, MatrixF* covariance);

// --- model-level convenience --------------------------------------------
void save_model(std::ostream& os, const OselmSkipGram& model);
void save_model(std::ostream& os, const OselmSkipGramDataflow& model);
void save_model(std::ostream& os, const SkipGramSGD& model);
/// FPGA accelerator: beta only, dequantized from Q8.24 (P lives on the
/// PL and is re-initialized per walk, so it is not persisted).
void save_model(std::ostream& os, const fpga::Accelerator& model);

/// OS-ELM loads. By default the checkpoint must carry the covariance P;
/// pass require_covariance = false to accept a beta-only checkpoint —
/// e.g. one written by the FPGA backend — leaving the model's current P
/// untouched (with the default reset-P-per-walk flow, P is
/// re-initialized before the next walk anyway).
void load_model(std::istream& is, OselmSkipGram& model,
                bool require_covariance = true);
void load_model(std::istream& is, OselmSkipGramDataflow& model,
                bool require_covariance = true);
/// FPGA accelerator: beta re-quantized to Q8.24 on load; a covariance
/// block, if present, is read and discarded.
void load_model(std::istream& is, fpga::Accelerator& model);

/// Crash-safe file write: `write` fills `path + ".tmp"`, which is
/// checked, closed, fsynced and renamed over `path`; then the directory
/// is fsynced. A reader of `path` sees either the old file or the
/// complete new one, and after a successful return the new one survives
/// power loss. On any failure up to the rename (open, a throwing
/// `write`, a failed stream, close, fsync or rename) the temp file is
/// removed, `path` is left untouched, and the error propagates. A
/// failing directory fsync also throws, with the new file in place.
void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write);

/// Written through write_file_atomically.
void save_model(const std::string& path, const OselmSkipGram& model);
void load_model(const std::string& path, OselmSkipGram& model);

}  // namespace seqge
