#include "runner/history.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "runner/scenario.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "util/thread_safety.hpp"

namespace crusader::runner {

namespace {

using util::fmt_double;
constexpr auto fmt = fmt_double;

// Serializes in-process appends: two sweeps sharing one history file (e.g.
// a test harness driving runs on worker threads) must interleave whole
// lines, never buffered fragments. Cross-process appends remain the
// caller's concern (CI runs are sequential).
util::Mutex g_append_mu;

HistoryEntry::Triple triple_of(const util::OnlineStats& stats) {
  if (stats.count() == 0) return {};
  return {stats.max(), stats.mean(), stats.count()};
}

void put_triple(std::ostream& os, std::string_view prefix,
                const HistoryEntry::Triple& t) {
  os << prefix << "max=" << fmt(t.max) << ',' << prefix
     << "mean=" << fmt(t.mean) << ',' << prefix << "count=" << t.count;
}

}  // namespace

std::uint64_t grid_digest(const std::vector<ScenarioSpec>& specs,
                          std::uint64_t base_seed) noexcept {
  std::uint64_t h = util::mix64(0x47524944ULL ^ base_seed);  // "GRID"
  for (const auto& spec : specs) h = util::mix64(h ^ spec.key());
  return h;
}

HistoryEntry make_history_entry(const SweepSummary& summary,
                                std::uint64_t base_seed,
                                std::uint64_t grid) {
  HistoryEntry entry;
  entry.seed = base_seed;
  entry.grid = grid;
  entry.cells = summary.scenarios;
  entry.errors = summary.errors;
  entry.timed_out = summary.timed_out;
  for (const auto& [world, stats] : summary.worlds) {
    const HistoryEntry::Triple base = triple_of(stats.ratio);
    HistoryEntry::WorldRatio ratio{world, base.max, base.mean, base.count};
    for (std::size_t i = 0; i < kHistorySeries.size(); ++i)
      ratio.series[i] = triple_of(stats.series[i]);
    entry.worlds.push_back(ratio);
  }
  return entry;
}

std::string format_history_line(const HistoryEntry& entry) {
  std::ostringstream os;
  os << "seed=" << entry.seed << " grid=" << entry.grid
     << " cells=" << entry.cells << " errors=" << entry.errors
     << " timed_out=" << entry.timed_out;
  for (const auto& w : entry.worlds) {
    os << ' ' << to_string(w.world) << ':';
    put_triple(os, "", {w.max, w.mean, w.count});
    for (std::size_t i = 0; i < kHistorySeries.size(); ++i) {
      if (w.series[i].count == 0) continue;
      os << ',';
      put_triple(os, kHistorySeries[i].prefix, w.series[i]);
    }
  }
  return os.str();
}

std::optional<HistoryEntry> parse_history_line(std::string_view line) {
  // Tokenize on whitespace; reject anything that is not key=value or
  // world:max=..,mean=..,count=..[,<series triples>], and any key or world
  // given twice, so a corrupted line never half-parses into a bogus
  // baseline.
  std::istringstream tokens{std::string(line)};
  std::string token;
  if (!(tokens >> token) || token.front() == '#') return std::nullopt;

  constexpr std::array<std::string_view, 5> kHeader = {
      "seed", "grid", "cells", "errors", "timed_out"};
  std::array<std::optional<std::uint64_t>, kHeader.size()> header;
  HistoryEntry entry;
  do {
    const std::string_view t = token;
    const auto eq = t.find('=');
    const auto colon = t.find(':');
    if (colon == std::string_view::npos || eq < colon) {  // header key=value
      const auto at =
          std::find(kHeader.begin(), kHeader.end(), t.substr(0, eq));
      if (eq == std::string_view::npos || at == kHeader.end())
        return std::nullopt;
      auto& slot = header[static_cast<std::size_t>(at - kHeader.begin())];
      if (slot || !(slot = parse_u64_strict(t.substr(eq + 1))))
        return std::nullopt;  // duplicate key or malformed value
      continue;
    }
    // world:<triple>[,<series triple>...]. Slot 0 is the mandatory base
    // triple, slot i + 1 is kHistorySeries[i].
    const auto world = parse_world(t.substr(0, colon));
    if (!world) return std::nullopt;
    for (const auto& w : entry.worlds)
      if (w.world == *world) return std::nullopt;  // world named twice
    constexpr std::array<std::string_view, 3> kFields = {"max", "mean",
                                                         "count"};
    std::array<HistoryEntry::Triple, kHistorySeries.size() + 1> triples{};
    std::array<unsigned, kHistorySeries.size() + 1> seen{};  // field bits
    for (std::string_view rest = t.substr(colon + 1);;) {
      const auto comma = rest.find(',');
      const std::string_view part = rest.substr(0, comma);
      rest.remove_prefix(comma == std::string_view::npos ? rest.size()
                                                         : comma + 1);
      const auto part_eq = part.find('=');
      if (part_eq == std::string_view::npos) return std::nullopt;
      const std::string_view key = part.substr(0, part_eq);
      const std::string_view value = part.substr(part_eq + 1);
      std::size_t field = 0;
      while (field < kFields.size() && !key.ends_with(kFields[field])) ++field;
      if (field == kFields.size()) return std::nullopt;
      const auto prefix = key.substr(0, key.size() - kFields[field].size());
      std::size_t slot = 0;
      if (!prefix.empty()) {
        const auto series = history_series_index(prefix);
        if (!series) return std::nullopt;
        slot = *series + 1;
      }
      if (seen[slot] & (1u << field)) return std::nullopt;  // duplicate key
      seen[slot] |= 1u << field;
      HistoryEntry::Triple& triple = triples[slot];
      if (field == 2) {
        const auto count = parse_u64_strict(value);
        if (!count) return std::nullopt;
        triple.count = static_cast<std::size_t>(*count);
      } else {
        const auto v = parse_double_strict(value);
        if (!v) return std::nullopt;
        (field == 0 ? triple.max : triple.mean) = *v;
      }
      if (comma == std::string_view::npos) break;
    }
    // The base triple is mandatory; a series triple is all or nothing, and
    // never written with count 0.
    constexpr unsigned kAll = 0b111;
    if (seen[0] != kAll) return std::nullopt;
    HistoryEntry::WorldRatio ratio{*world, triples[0].max, triples[0].mean,
                                   triples[0].count};
    for (std::size_t i = 0; i < kHistorySeries.size(); ++i) {
      if (seen[i + 1] == 0) continue;
      if (seen[i + 1] != kAll || triples[i + 1].count == 0)
        return std::nullopt;
      ratio.series[i] = triples[i + 1];
    }
    entry.worlds.push_back(ratio);
  } while (tokens >> token);

  if (!header[0] || !header[2]) return std::nullopt;  // seed, cells
  entry.seed = *header[0];
  entry.grid = header[1].value_or(0);
  entry.cells = static_cast<std::size_t>(*header[2]);
  entry.errors = static_cast<std::size_t>(header[3].value_or(0));
  entry.timed_out = static_cast<std::size_t>(header[4].value_or(0));
  return entry;
}

std::optional<HistoryEntry> load_last_entry(std::istream& is) {
  std::optional<HistoryEntry> last;
  std::string line;
  while (std::getline(is, line)) {
    if (auto entry = parse_history_line(line)) last = std::move(entry);
  }
  return last;
}

std::optional<HistoryEntry> load_baseline(std::istream& is,
                                          std::uint64_t grid) {
  std::optional<HistoryEntry> baseline;
  std::string line;
  while (std::getline(is, line)) {
    auto entry = parse_history_line(line);
    if (!entry) continue;
    if (entry->grid != grid) continue;
    if (entry->errors > 0 || entry->timed_out > 0) continue;
    baseline = std::move(entry);
  }
  return baseline;
}

void append_history(const std::string& path, const HistoryEntry& entry) {
  util::MutexLock lock(g_append_mu);
  const bool fresh = [&] {
    std::ifstream probe(path);
    return !probe.good() || probe.peek() == std::ifstream::traits_type::eof();
  }();
  std::ofstream os(path, std::ios::app);
  if (!os) throw std::runtime_error("cannot open history file '" + path + "'");
  if (fresh)
    os << "# crusader skew_ratio history v1: one line per sweep run; "
          "world:max is the trend-gate signal\n";
  os << format_history_line(entry) << '\n';
  if (!os) throw std::runtime_error("cannot write history file '" + path + "'");
}

std::vector<std::string> check_trend(
    const std::optional<HistoryEntry>& baseline, const HistoryEntry& current,
    double pct) {
  std::vector<std::string> failures;
  if (current.errors > 0)
    failures.push_back(std::to_string(current.errors) +
                       " errored cell(s): a run that did not fully execute "
                       "cannot attest a trend");
  if (current.timed_out > 0)
    failures.push_back(std::to_string(current.timed_out) +
                       " timed-out cell(s): a run that did not fully execute "
                       "cannot attest a trend");
  if (!baseline) return failures;
  for (const auto& w : current.worlds) {
    if (w.count == 0) continue;
    const auto b = std::find_if(
        baseline->worlds.begin(), baseline->worlds.end(),
        [&](const auto& bw) { return bw.world == w.world && bw.count > 0; });
    if (b == baseline->worlds.end()) continue;
    const auto check = [&](std::string_view label, double now, double then) {
      // Tiny absolute epsilon so pct=0 tolerates formatting round-trips.
      if (now > then * (1.0 + pct / 100.0) + 1e-12)
        failures.push_back(std::string(to_string(w.world)) + ": max " +
                           std::string(label) + " " + fmt(now) +
                           " regressed > " + fmt(pct) + "% over baseline " +
                           fmt(then));
    };
    check("skew_ratio", w.max, b->max);
    // A series is gated only when both runs measured it (a baseline without
    // churn axes says nothing about local skew). For the adaptive series a
    // higher ratio is a stronger empirical worst case, but as a conformance
    // trend growth past the baseline still reads as lost protocol margin.
    for (std::size_t i = 0; i < kHistorySeries.size(); ++i)
      if (w.series[i].count > 0 && b->series[i].count > 0)
        check(kHistorySeries[i].label, w.series[i].max, b->series[i].max);
  }
  return failures;
}

}  // namespace crusader::runner
