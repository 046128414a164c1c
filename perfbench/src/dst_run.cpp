// dst-full: check::run_campaign over a grid file with the grid's own
// executor and codec setting, on a fixed number of worker threads. The
// bench seed shifts the grid's seed axis, so each seed runs different
// cells of the same shape. The grid runs as one campaign per slice of its
// seed axis, so run.py can report the median over slices and a transient
// stall of the host moves one slice, not the whole run. Each cell is timed
// as the gap between completions on its worker thread. Untraced runs call
// run_campaign itself; the traced run repeats the campaign's per-cell loop
// here, over the same slices, with spans around check::run_cell and
// check::run_checkers.
#include "dst_run.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "check/campaign.hpp"
#include "check/runner.hpp"
#include "micro.hpp"
#include "net/arena.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace mewc;
namespace json = check::json;
using OnCell = std::function<void(const check::CellResult&)>;

/// Everything before a campaign's first cell starts: read and parse the
/// grid, shift its seeds, enumerate its cells.
bool load_grid(const DstRunConfig& cfg, check::GridSpec* grid,
               std::vector<check::CellSpec>* cells, std::string* error) {
  const auto v = json::read_file(cfg.grid, error);
  if (!v) return false;
  check::GridSpec g;
  if (!check::GridSpec::from_json(*v, &g, error)) return false;
  const std::uint64_t shift = cfg.seed * g.seeds.size();
  for (std::uint64_t& s : g.seeds) s += shift;
  *cells = g.enumerate();
  *grid = std::move(g);
  return true;
}

/// check::run_campaign's per-cell loop with spans named "cell",
/// "run_cell" and "run_checkers"; span op ids are `first_id` + the cell's
/// index in `cells`. `on_cell` is serialized, as in run_campaign.
void traced_campaign(const check::GridSpec& grid,
                     const std::vector<check::CellSpec>& cells, unsigned jobs,
                     SpanLog* log, std::uint64_t first_id,
                     const OnCell& on_cell) {
  check::RunOptions opts;
  opts.record_messages = grid.record_messages;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cells.size()) return;
      const Scoped cell_span(log, "cell", first_id + i);
      const pool::StatsScope pool_scope;
      const cov::CoverageScope cov_scope;
      check::RunRecord record;
      {
        const Scoped span(log, "run_cell", first_id + i);
        record = check::run_cell(cells[i], opts);
      }
      check::CellResult result;
      result.cell = cells[i];
      {
        const Scoped span(log, "run_checkers", first_id + i);
        result.violations = check::run_checkers(record, grid.checkers);
      }
      const pool::Stats pool_delta = pool_scope.delta();
      result.pool_reused = pool_delta.reused;
      result.pool_fresh = pool_delta.fresh;
      result.coverage = cov_scope.bitmap();
      result.words_correct = record.meter.words_correct;
      result.f_observed = record.f();
      result.any_fallback = record.any_fallback;
      result.adaptive = record.adaptive();
      const std::lock_guard<std::mutex> lock(mu);
      on_cell(result);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned j = 0; j < jobs; ++j) threads.emplace_back(worker);
  for (std::thread& th : threads) th.join();
}

json::Array to_array(const std::vector<std::int64_t>& xs) {
  json::Array a;
  a.reserve(xs.size());
  for (const std::int64_t x : xs) a.emplace_back(x);
  return a;
}

}  // namespace

int run_dst(const DstRunConfig& cfg) {
  check::GridSpec grid;
  std::vector<check::CellSpec> cells;
  std::vector<std::int64_t> setup_ns;
  for (std::uint32_t r = 0; r < cfg.setup_repeats; ++r) {
    std::string error;
    const std::int64_t t0 = now_ns();
    if (!load_grid(cfg, &grid, &cells, &error)) {
      std::fprintf(stderr, "dst: %s: %s\n", cfg.grid.c_str(), error.c_str());
      return 2;
    }
    setup_ns.push_back(now_ns() - t0);
  }

  json::Object o;
  std::uint64_t failed = 0;
  std::uint64_t words = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t reused = 0;
  std::uint64_t fresh = 0;
  std::vector<std::int64_t> cell_ns;
  cell_ns.reserve(cells.size());
  json::Array chunk_ns;
  json::Array chunk_cells;
  json::Array ranges;  // [protocol, first span op id, end] per slice
  SpanLog log;
  const std::vector<std::uint64_t> seeds = grid.seeds;
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min<std::size_t>(cfg.chunks, seeds.size()));
  std::uint64_t first_id = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    check::GridSpec slice = grid;
    slice.seeds.assign(seeds.begin() + c * seeds.size() / chunks,
                       seeds.begin() + (c + 1) * seeds.size() / chunks);
    std::map<std::thread::id, std::int64_t> last_done;  // per worker
    std::uint64_t done = 0;
    const std::int64_t slice_start = now_ns();
    // Serialized by the campaign loop; runs on the cell's worker.
    const OnCell on_cell = [&](const check::CellResult& r) {
      const std::int64_t t = now_ns();
      auto it =
          last_done.try_emplace(std::this_thread::get_id(), slice_start).first;
      cell_ns.push_back(t - it->second);
      it->second = t;
      ++done;
      failed += r.passed() ? 0 : 1;
      words += r.words_correct;
      fallbacks += r.any_fallback ? 1 : 0;
      reused += r.pool_reused;
      fresh += r.pool_fresh;
    };
    if (!cfg.trace) {
      (void)check::run_campaign(slice, cfg.jobs, on_cell);
    } else {
      const std::vector<check::CellSpec> part = slice.enumerate();
      traced_campaign(slice, part, cfg.jobs, &log, first_id, on_cell);
      // enumerate() runs protocols outermost, so each protocol's cells form
      // one contiguous index range; run.py maps spans to protocols by it.
      for (std::size_t i = 0; i < part.size();) {
        std::size_t j = i;
        while (j < part.size() && part[j].protocol == part[i].protocol) ++j;
        ranges.push_back(
            json::Array{json::Value(check::protocol_name(part[i].protocol)),
                        json::Value(first_id + i), json::Value(first_id + j)});
        i = j;
      }
    }
    chunk_ns.emplace_back(now_ns() - slice_start);
    chunk_cells.emplace_back(done);
    first_id += done;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  if (cfg.trace) {
    // The first 8 cells of each protocol feed the codec microbenchmark.
    std::vector<check::CellSpec> samples;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i < 8 || cells[i].protocol != cells[i - 8].protocol) {
        samples.push_back(cells[i]);
      }
    }
    const CodecTiming codec = time_codec(record_payloads(samples, 4096), 20);
    const PairingTiming pairing = time_pairing(cfg.seed, 2000);
    o["protocol_ranges"] = std::move(ranges);
    o["encode_ns"] = codec.encode_ns;
    o["decode_ns"] = codec.decode_ns;
    o["codec_ok"] = codec.ok && codec.messages > 0;
    o["pairing_us"] = pairing.pairing_us;
    o["pairing_ok"] = pairing.bilinear;
    if (!log.write(cfg.out_dir + "/spans.tsv")) return 1;
  }
  o["setup_ns"] = to_array(setup_ns);
  o["cell_ns"] = to_array(cell_ns);
  o["chunk_ns"] = std::move(chunk_ns);
  o["chunk_cells"] = std::move(chunk_cells);
  o["cells"] = cells.size();
  o["failed"] = failed;
  o["words_correct"] = words;
  o["fallback_cells"] = fallbacks;
  o["pool_reused"] = reused;
  o["pool_fresh"] = fresh;
  o["peak_rss_kb"] = ru.ru_maxrss;
  return json::write_file(cfg.out_dir + "/dst.json", json::Value(std::move(o)))
             ? 0
             : 1;
}

}  // namespace perfbench
