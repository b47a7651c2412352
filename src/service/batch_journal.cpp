#include "service/batch_journal.h"

#include <ostream>

namespace phpf::service {

BatchJournal::BatchJournal(std::ostream& out, const std::string& journalPath,
                           bool resume, const RowFn& onResumed)
    : out_(out) {
    if (journalPath.empty()) return;
    if (resume) {
        std::ifstream in(journalPath);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty()) continue;
            std::string perr;
            const obs::Json row = obs::Json::parse(line, &perr);
            if (!perr.empty() || !row.isObject()) continue;
            if (row.find("summary") != nullptr) continue;
            const obs::Json* job = row.find("job");
            if (job == nullptr || !job->isString()) continue;
            done_.insert(job->stringValue());
            if (onResumed) onResumed(job->stringValue(), row);
        }
    }
    journal_.open(journalPath, std::ios::app);
}

bool BatchJournal::done(const std::string& job) const {
    std::lock_guard<std::mutex> lk(mu_);
    return done_.count(job) != 0;
}

bool BatchJournal::emit(const std::string& job, const obs::Json& row) {
    std::lock_guard<std::mutex> lk(mu_);
    if (!done_.insert(job).second) {
        ++duplicates_;
        return false;
    }
    const std::string line = row.dump(-1);
    if (journal_.is_open()) {
        journal_ << line << "\n";
        journal_.flush();
    }
    out_ << line << "\n";
    out_.flush();
    return true;
}

int BatchJournal::duplicates() const {
    std::lock_guard<std::mutex> lk(mu_);
    return duplicates_;
}

}  // namespace phpf::service
