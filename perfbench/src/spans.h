#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer, recorded by the benchmark around the
/// library's public functions.
struct Span {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;        ///< index of the enclosing span, -1 for a root
    std::int64_t job = -1;  ///< job the span belongs to, -1 for none

    [[nodiscard]] std::int64_t durNs() const { return endNs - startNs; }
};

/// In-memory span log of one benchmark run. Spans nest by call order on
/// the recording thread (the recorder is single-threaded by design: the
/// benchmark records only on its client thread). A disabled recorder
/// reads no clock and stores nothing, which is what untraced runs use.
class SpanRecorder {
public:
    explicit SpanRecorder(bool enabled = false)
        : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

    [[nodiscard]] bool enabled() const { return enabled_; }
    void setEnabled(bool e) { enabled_ = e; }

    [[nodiscard]] std::int64_t nowNs() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /// Open a span under the innermost open one; returns its index, or
    /// -1 when disabled.
    int begin(const char* name, std::int64_t job);
    void end(int id);
    /// Record an already measured span; returns its index.
    int add(std::string name, std::int64_t startNs, std::int64_t endNs,
            int parent, std::int64_t job);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover.
    [[nodiscard]] std::vector<std::int64_t> selfNs() const;

    /// Write the spans as a Chrome trace_event file; false on I/O error.
    [[nodiscard]] bool writeChromeTrace(const std::string& path,
                                        const std::string& processName) const;

private:
    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span; a null or disabled recorder makes it a no-op.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* r, const char* name, std::int64_t job)
        : r_(r), id_(r != nullptr ? r->begin(name, job) : -1) {}
    ~ScopedSpan() {
        if (r_ != nullptr) r_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder* r_;
    int id_;
};

}  // namespace perfbench
