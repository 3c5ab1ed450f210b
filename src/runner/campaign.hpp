#pragma once
// Resumable CSV campaigns: the durable half of a 10k+-scenario sweep.
//
// A campaign is an ordered CSV file (csv_header() + one write_csv_row per
// spec, in spec order) plus a manifest — an append-only checkpoint file of
// the spec digests whose rows have been recorded, flushed every
// `checkpoint_every` rows. Because the runner's streaming sink delivers
// results in spec order, "recorded" is always a prefix of the spec list, so
// resuming is: reconcile the two files after a kill (trim the CSV back to
// the manifest's last checkpoint, or the manifest back to a truncated CSV —
// whichever is shorter survives), verify the surviving digests are exactly
// the head of the grid being resumed, replay the surviving rows into the
// caller's accumulators, and run the rest. A resumed campaign's CSV is byte
// for byte the file an uninterrupted run would have written.
//
// Timed-out rows (--budget-ms aborts) are recorded like any other row while
// the campaign runs, but resume treats them as retryable: the recorded
// prefix is cut at the first timed_out row and that cell (plus everything
// after it) re-runs, so a transient overload never bakes a permanently
// failed cell into the campaign.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "util/thread_safety.hpp"

namespace crusader::runner {

class CsvCampaign {
 public:
  struct Options {
    std::string csv_path;
    std::string manifest_path;
    /// Rows between manifest checkpoints. Rows themselves are flushed as
    /// they are written; at most this many completed rows are re-run after
    /// a kill.
    std::size_t checkpoint_every = 32;
    /// Recorded in the manifest header and verified on resume — a campaign
    /// resumed under a different seed would silently splice two different
    /// executions into one file.
    std::uint64_t base_seed = 1;
  };

  /// Minimal reconstruction of a recorded row, for replaying gates and
  /// summaries without retaining the full result: the spec, plus the
  /// columns the metric table marks `replay`. Other members stay at their
  /// defaults.
  using ReplayFn = std::function<void(const ScenarioResult&)>;

  /// Opens (or creates) the campaign for `specs`. When the files exist,
  /// reconciles and verifies them as described above and replays each
  /// surviving row through `replay` (when given). Throws std::runtime_error
  /// when the files are unusable: schema or seed mismatch, or recorded
  /// digests that are not a prefix of `specs` (a different grid).
  CsvCampaign(Options options, const std::vector<ScenarioSpec>& specs,
              const ReplayFn& replay = {});

  CsvCampaign(const CsvCampaign&) = delete;
  CsvCampaign& operator=(const CsvCampaign&) = delete;

  /// Number of specs already recorded; the caller runs specs[resume_index()
  /// ..] and appends each result, in order, via append().
  [[nodiscard]] std::size_t resume_index() const noexcept {
    util::MutexLock lock(mu_);
    return done_;
  }

  /// Appends the next spec's result: writes + flushes the CSV row, then
  /// checkpoints the manifest when due. Must be called in spec order (the
  /// streaming sink's contract); the spec digest is verified against the
  /// expected position and a mismatch throws.
  void append(const ScenarioResult& result);

  /// Final manifest checkpoint; call on successful completion (or a clean
  /// early stop). Deliberately NOT called by the destructor: an abandoned
  /// campaign (exception, kill) keeps its manifest at the last periodic
  /// checkpoint, and the next resume re-runs the un-checkpointed tail.
  void finish();

 private:
  void checkpoint() CS_REQUIRES(mu_);

  // The streamed runner's ordered sink already serializes append() calls
  // under its reorder-window lock, but that is a caller convention the
  // compiler cannot see. The campaign carries its own (uncontended) mutex so
  // its lock discipline is machine-checked and a future caller that streams
  // from multiple sinks is safe by construction, not by comment.
  mutable util::Mutex mu_;
  Options options_;
  std::vector<std::uint64_t> expected_keys_;  ///< spec digests, grid order
  std::size_t done_ CS_GUARDED_BY(mu_) = 0;  ///< rows recorded (CSV) so far
  /// Digests flushed to the manifest.
  std::size_t checkpointed_ CS_GUARDED_BY(mu_) = 0;
  std::ofstream csv_ CS_GUARDED_BY(mu_);
  std::ofstream manifest_ CS_GUARDED_BY(mu_);
};

}  // namespace crusader::runner
