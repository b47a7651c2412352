#pragma once

#include <fstream>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <set>
#include <string>

#include "obs/json.h"

namespace phpf::service {

/// The crash-safe row sink both batch runners (runBatch and the cluster
/// coordinator's runClusterBatch) emit through. Rows are keyed by job
/// name; the journal is an append-only JSONL file of job rows (never the
/// summary row), so resuming from it is a name-set lookup.
///
/// emit() is the single completion point: a job's row leaves here once
/// or never. The journal line is written and flushed before the row
/// reaches `out`, so a kill between the two writes leaves the row
/// durable and `--resume` skips it instead of running it again.
/// Thread-safe.
class BatchJournal {
public:
    /// Called for each journaled row loaded on resume.
    using RowFn = std::function<void(const std::string& job,
                                     const obs::Json& row)>;

    /// `journalPath` empty disables journaling. With `resume`, the
    /// existing journal is read first: every row whose "job" is a
    /// string marks that job done and is handed to `onResumed`. A torn
    /// final line (the previous run died mid-write) fails to parse and
    /// is not counted; rows without a string "job" are skipped.
    BatchJournal(std::ostream& out, const std::string& journalPath,
                 bool resume, const RowFn& onResumed = {});

    /// True once `job` was journaled by a previous run or emitted here.
    [[nodiscard]] bool done(const std::string& job) const;

    /// Journal `row` (flushed), then write it to `out`. A second emit
    /// for the same job is suppressed and counted; returns false then.
    bool emit(const std::string& job, const obs::Json& row);

    /// Emits suppressed because their job had already completed.
    [[nodiscard]] int duplicates() const;

private:
    mutable std::mutex mu_;
    std::set<std::string> done_;
    std::ostream& out_;
    std::ofstream journal_;
    int duplicates_ = 0;
};

}  // namespace phpf::service
