// serve_open: an in-process serve::Server fed through its protocol endpoint
// (Server::handleLine) by one open-loop generator at a fixed offered rate.
// Requests arrive at fixed intervals (a constant-rate open loop, as
// independent users paced by a load generator) over a seeded zipf mix of
// M x K generated grading workloads and S SEU-campaign workloads: hot
// workloads repeat and hit the checkpoint store and the engine pool, cold
// ones record (the store keeps fewer recordings than there are workloads).
// Each request is timed from when it was due, so a stall also charges the
// wait it imposes on later arrivals. The traffic comes in rounds of a few
// seconds; between rounds, while the daemon is idle, a speed probe and a
// set-up run, and each round's latencies are scaled by the probes on
// either side of it (calibration.hpp).
#include <cmath>
#include <condition_variable>
#include <span>

#include "perf/bench_runner.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "seu/seu_campaign.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fmossim;
using serve::WorkloadSpec;

namespace {

// The offered rate, fixed from a capacity calibration of this mix (see
// README.md): the daemon's queue starts to form near 120 requests/s; 10/s
// leaves room for a host slowed 2x by other tenants. A round of 20
// requests lasts 2 s, shorter than the host's speed phases (5-25 s), so
// the probes around it track the speed the round ran at. The grading
// requests take ~15 ms each rather than a few: the host's short stalls
// then add less to each, and the tail moved less when they grew.
constexpr double kRate = 10.0;
constexpr std::size_t kRoundRequests = 20;
// Threads of each grading request's sharded run, and so of each speed
// probe between rounds.
constexpr unsigned kJobs = 2;

constexpr std::uint32_t kCircuits = 6;       // M
constexpr std::uint32_t kSequences = 3;      // K per circuit
constexpr std::uint32_t kSeuCampaigns = 4;   // S
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kShuffleBlock = 8;
// Set-up repetitions before the traffic; one more runs between rounds.
constexpr int kSetupReps = 3;

/// The mix, hottest first: loadgen's catalog shape (circuits 1..M, K
/// sequences each) with every SEU campaign drawn from the seed, which also
/// draws the request stream. The grading workloads stay fixed: their costs
/// differ by sequence, and letting the seed pick them would make the spread
/// between runs a property of the seed. SEU campaigns sit at ranks 2, 7, 12
/// and 17, so both request kinds are hot and cold.
std::vector<WorkloadSpec> buildMix(std::uint64_t seed) {
  std::vector<WorkloadSpec> gen;
  for (std::uint32_t c = 0; c < kCircuits; ++c) {
    for (std::uint32_t k = 0; k < kSequences; ++k) {
      WorkloadSpec spec;
      spec.circuitSeed = c + 1;
      if (k > 0) {
        std::uint64_t h = kFnvOffsetBasis;
        fnvMix(h, c);
        fnvMix(h, k);
        spec.seqSeed = h | 1;  // 0 selects the generator's own sequence
      }
      spec.numNodes = 24;
      spec.numInputs = 6;
      spec.numFaults = 64;
      spec.numPatterns = 64;
      spec.jobs = kJobs;
      gen.push_back(spec);
    }
  }
  std::vector<WorkloadSpec> mix;
  std::uint32_t nextSeu = 0;
  for (const WorkloadSpec& g : gen) {
    if (mix.size() % 5 == 2 && nextSeu < kSeuCampaigns) {
      WorkloadSpec spec = gen[nextSeu * kSequences];  // circuit nextSeu + 1
      spec.seuInjections = 16;
      spec.seuInstants = 4;
      std::uint64_t h = kFnvOffsetBasis;
      fnvMix(h, seed);
      fnvMix(h, nextSeu);
      spec.seuSeed = h;
      spec.numPatterns = 32;
      mix.push_back(spec);
      ++nextSeu;
    }
    mix.push_back(g);
  }
  return mix;
}

/// A direct SEU campaign with the daemon's options (serve/server.cpp) but a
/// private checkpoint store, so it records its own good machine.
seu::CampaignResult directCampaign(const WorkloadSpec& spec,
                                   const serve::BuiltWorkload& w, Tracer& tr,
                                   std::uint32_t id) {
  seu::CampaignOptions opts;
  opts.jobs = spec.jobs;
  opts.laneWidth = spec.laneWidth;
  opts.policy = spec.policy;
  Span s(tr, "seu.campaign", id);
  return seu::runSeuCampaign(w.net, w.seq, w.seuCampaign, opts);
}

/// What the daemon must answer for a spec: a direct Engine run or a direct
/// SEU campaign.
std::uint64_t expectedChecksum(const WorkloadSpec& spec,
                               const serve::BuiltWorkload& w, Tracer& tr,
                               std::uint32_t id) {
  if (!w.seuCampaign.empty()) return directCampaign(spec, w, tr, id).checksum();
  Engine engine(w.net, w.faults, serve::specEngineOptions(spec));
  return perf::resultChecksum(engine.run(w.seq));
}

/// One request as the client saw it.
struct Request {
  std::size_t spec = 0;
  bool traced = false;         // its submit runs inside a span
  Clock::time_point due;
  Clock::time_point submitted;
  std::uint64_t id = 0;        // 0: refused at submit
  bool done = false;
  double latencyMs = 0.0;      // due -> done
  double execMs = 0.0;
  std::size_t queueDepth = 0;  // jobs waiting when this one was submitted
};

/// The request stream: each mix rank gets its zipf share of `n` requests
/// (largest remainders round the shares), in an order the seed shuffles.
/// Exact shares keep the traffic distribution the same on every seed; the
/// seed moves only the order, and with it the store and pool hits. Every
/// other request of each rank is marked traced, so traced and untraced
/// requests carry the same mix.
std::vector<Request> requestStream(std::size_t mixSize, std::size_t n,
                                   std::uint64_t seed) {
  std::vector<double> share(mixSize);
  double total = 0.0;
  for (std::size_t r = 0; r < mixSize; ++r) {
    share[r] = std::pow(static_cast<double>(r + 1), -kZipfExponent);
    total += share[r];
  }
  std::vector<std::size_t> count(mixSize);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t assigned = 0;
  for (std::size_t r = 0; r < mixSize; ++r) {
    const double exact = share[r] / total * static_cast<double>(n);
    count[r] = static_cast<std::size_t>(exact);
    assigned += count[r];
    remainder.emplace_back(exact - static_cast<double>(count[r]), r);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (std::size_t k = 0; assigned < n; ++k, ++assigned) ++count[remainder[k].second];
  // Spread each rank's requests evenly over the stream (smooth weighted
  // round robin), then shuffle within blocks of kShuffleBlock requests.
  std::vector<std::size_t> order;
  std::vector<std::int64_t> credit(mixSize, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    for (std::size_t r = 0; r < mixSize; ++r) {
      credit[r] += static_cast<std::int64_t>(count[r]);
      if (credit[r] > credit[best]) best = r;
    }
    credit[best] -= static_cast<std::int64_t>(n);
    order.push_back(best);
  }
  Rng rng(seed ^ 0x6a09e667f3bcc909ULL);
  for (std::size_t b = 0; b < n; b += kShuffleBlock) {
    const std::size_t e = std::min(n, b + kShuffleBlock);
    for (std::size_t i = e - 1; i > b; --i) {
      std::swap(order[i], order[b + rng.next() % (i - b + 1)]);
    }
  }
  std::vector<Request> requests(n);
  std::vector<std::size_t> seen(mixSize);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i].spec = order[i];
    requests[i].traced = seen[order[i]]++ % 2 == 1;
  }
  return requests;
}

/// Sends `round` open-loop at `rate` from now on and waits until every
/// request is answered; records each answer as the client saw it.
void openLoop(serve::Server& server, const std::vector<std::string>& submitLines,
              const std::vector<std::uint64_t>& expected, double rate, Tracer& tr,
              std::span<Request> round) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < round.size(); ++i) {
    const std::chrono::duration<double> offset(static_cast<double>(i) / rate);
    round[i].due = start + std::chrono::duration_cast<Clock::duration>(offset);
  }

  // Waits for a submitted request's result and checks it. The daemon's own
  // submit->done time gives the completion, so results collected in
  // submission order are still timed exactly.
  const auto collect = [&](Request& q) {
    serve::JsonValue get = serve::JsonValue::makeObject();
    get.set("verb", serve::JsonValue::makeString("result"));
    get.set("id", serve::JsonValue::makeU64(q.id));
    const serve::JsonValue resp =
        serve::JsonValue::parse(server.handleLine(get.dump()));
    if (!resp.boolOr("ok", false) || resp.stringOr("status", "") != "done") return;
    const serve::JobResult jr = serve::JobResult::fromJson(resp.get("result"));
    q.done = jr.checksum == expected[q.spec];
    q.execMs = jr.wallSeconds * 1000.0;
    q.latencyMs =
        std::chrono::duration<double, std::milli>(q.submitted - q.due).count() +
        jr.latencySeconds * 1000.0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::size_t submittedCount = 0;  // guarded by mu
  std::exception_ptr collectorError;
  std::thread collector([&] {
    try {
      for (std::size_t i = 0; i < round.size(); ++i) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return submittedCount > i; });
        }
        if (round[i].id != 0) collect(round[i]);
      }
    } catch (...) {
      collectorError = std::current_exception();
    }
  });

  Tracer off(false);
  for (std::size_t i = 0; i < round.size(); ++i) {
    Request& q = round[i];
    std::this_thread::sleep_until(q.due);
    q.submitted = Clock::now();
    q.queueDepth = server.queue().depth();
    {
      Span s(q.traced ? tr : off, "serve.submit", static_cast<std::uint32_t>(i));
      const serve::JsonValue resp =
          serve::JsonValue::parse(server.handleLine(submitLines[q.spec]));
      if (resp.boolOr("ok", false)) q.id = resp.u64Or("id", 0);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      submittedCount = i + 1;
    }
    cv.notify_one();
  }
  collector.join();
  if (collectorError) std::rethrow_exception(collectorError);
}

}  // namespace

void runServe(const Options& opt, Report& rep, Tracer& tr) {
  rep.note("offered rate: " + std::to_string(kRate) +
           " req/s, constant-rate open loop in rounds of " +
           std::to_string(kRoundRequests) + " requests");

  // Set-up: expanding every workload of the mix, right after a speed probe
  // while the daemon is idle. Set-ups run three times before the traffic
  // and once in every gap between rounds; setup_s is the median of all.
  const std::vector<WorkloadSpec> mix = buildMix(opt.seed);
  Calibrator cal;
  std::vector<double> setupS;
  const auto setupOnce = [&](std::uint32_t i) {
    const double probe = cal.probeMs();
    Span s(tr, "setup", i);
    std::vector<serve::BuiltWorkload> built;
    for (const WorkloadSpec& spec : mix) built.push_back(serve::buildWorkload(spec));
    setupS.push_back(s.stop() * kReferenceProbeMs / probe / 1000.0);
    return built;
  };
  const std::vector<serve::BuiltWorkload> built = setupOnce(0);
  for (int i = 1; i < kSetupReps; ++i) setupOnce(static_cast<std::uint32_t>(i));
  std::vector<std::uint64_t> expected;
  std::vector<std::string> submitLines;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    expected.push_back(
        expectedChecksum(mix[i], built[i], tr, static_cast<std::uint32_t>(i)));
    serve::JsonValue v = serve::JsonValue::makeObject();
    v.set("verb", serve::JsonValue::makeString("submit"));
    v.set("workload", mix[i].toJson());
    submitLines.push_back(v.dump());
  }

  serve::ServerOptions so;
  so.poolEngines = 4;
  so.workers = 2;
  so.queueBound = 64;
  so.storeEntries = 8;  // fewer than the mix's 22 workloads: cold ones record
  serve::Server server(so);
  server.start();

  const std::size_t n = std::max<std::size_t>(
      kMinSamples, static_cast<std::size_t>(std::ceil(opt.seconds * kRate)));
  std::vector<Request> reqs = requestStream(mix.size(), n, opt.seed);
  // Each request's latency scales by the mean of the probes before and
  // after its round, run on as many threads as a grading request takes.
  std::vector<double> factor(n);
  for (std::size_t begin = 0; begin < n; begin += kRoundRequests) {
    const std::size_t end = std::min(n, begin + kRoundRequests);
    setupOnce(kSetupReps + static_cast<std::uint32_t>(begin / kRoundRequests));
    const double before = cal.parallelProbeMs(kJobs);
    openLoop(server, submitLines, expected, kRate, tr,
             std::span<Request>(reqs).subspan(begin, end - begin));
    const double after = cal.parallelProbeMs(kJobs);
    for (std::size_t i = begin; i < end; ++i) {
      factor[i] = kReferenceProbeMs / (0.5 * (before + after));
    }
  }
  const serve::ServerStats stats = server.stats();
  server.stop();

  std::vector<double> lat, scaled;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& q = reqs[i];
    rep.check(q.done,
              q.id == 0 ? "request refused at submit"
                        : "request " + std::to_string(q.id) + " (mix rank " +
                              std::to_string(q.spec) +
                              ") failed or differs from the direct run",
              /*wrongOutput=*/q.id != 0);
    lat.push_back(q.done ? q.latencyMs : std::numeric_limits<double>::infinity());
    scaled.push_back(lat.back() * factor[i]);
  }

  // Backlog: jobs waiting at submit, first third against last third.
  const std::size_t third = reqs.size() / 3;
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    early += static_cast<double>(reqs[i].queueDepth);
    late += static_cast<double>(reqs[reqs.size() - 1 - i].queueDepth);
  }
  rep.note("mean queue depth at submit: first third " +
           std::to_string(third ? early / third : 0.0) + ", last third " +
           std::to_string(third ? late / third : 0.0));

  if (!tr.enabled()) {
    setEndToEndMetrics(rep, scaled, lat, setupS);
    return;
  }

  std::vector<double> exec, wait, lag, tracedMs, untracedMs;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& q = reqs[i];
    exec.push_back(q.execMs);
    wait.push_back(q.latencyMs - q.execMs);
    lag.push_back(std::chrono::duration<double, std::milli>(q.submitted - q.due).count());
    (q.traced ? tracedMs : untracedMs).push_back(scaled[i]);
  }
  rep.set("trace.overhead_ms", median(tracedMs) - median(untracedMs));
  rep.set("serve.exec_ms_p50", median(exec));
  rep.set("serve.wait_ms_p50", median(wait));
  rep.set("serve.submit_us", median(tr.durationsMs("serve.submit")) * 1000.0);
  const std::uint64_t storeAcquires = stats.storeHits + stats.storeRecordings;
  rep.set("serve.store_hit_ratio",
          static_cast<double>(stats.storeHits) /
              static_cast<double>(std::max<std::uint64_t>(1, storeAcquires)));
  rep.set("serve.engine_reuse_ratio",
          static_cast<double>(stats.pool.reuses) /
              static_cast<double>(std::max<std::uint64_t>(1, stats.pool.acquires)));
  rep.set("serve.rejected", static_cast<double>(stats.rejected));
  rep.set("serve.gen_lag_ms", tail(lag).value);

  // SEU layer: direct runSeuCampaign calls on the mix's campaigns, repeated
  // (the oracle's calls above are spanned too).
  std::vector<double> evals, groups, perSecond;
  for (std::uint32_t round = 1; round <= 3; ++round) {
    for (std::size_t i = 0; i < mix.size(); ++i) {
      if (built[i].seuCampaign.empty()) continue;
      const Clock::time_point a = Clock::now();
      const seu::CampaignResult res = directCampaign(mix[i], built[i], tr, round * 1000);
      perSecond.push_back(static_cast<double>(res.injections.size()) /
                          seconds(a, Clock::now()));
      evals.push_back(static_cast<double>(res.totalNodeEvals));
      groups.push_back(static_cast<double>(res.numGroups));
      rep.check(res.checksum() == expected[i], "direct SEU campaign differs");
    }
  }
  rep.set("seu.campaign_ms", median(tr.durationsMs("seu.campaign")));
  rep.set("seu.injections_per_s", median(perSecond));
  rep.set("seu.node_evals", median(evals));
  rep.set("seu.groups", median(groups));
}

}  // namespace perfbench
