/**
 * @file
 * hthbench — session-level benchmark of the HTH monitor.
 *
 *   hthbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--trace-out FILE]
 *
 * One session is what a user of HTH pays per monitored program: a
 * fresh hth::Hth (kernel, trusted libc, policy compile), the guest
 * world set up, monitor() run to the verdict and report, the
 * benchmark's correctness check, and the teardown. Sessions run
 * back to back on one thread (a closed loop with one client), in
 * passes over the workload's inputs, shuffled from the seed, until
 * --seconds have elapsed at a pass boundary.
 *
 * Workloads (inputs are generated from --seed only):
 *   corpus     the 69-scenario evaluation corpus; short guests, so
 *              construction (policy compile) dominates a session
 *   compute    long data-flow-heavy guests; VM dispatch and taint
 *              propagation dominate
 *   events     syscall-heavy guests; Harrier event dispatch and the
 *              CLIPS match/fire path dominate
 *   manyrules  the corpus under the shipped policy plus 500 seeded
 *              synthetic rules; policy compile and Rete at scale
 *
 * Host-speed normalization. On a shared host the same binary runs
 * 1.3-2x slower for seconds at a time when neighbours load the
 * machine; such swings dwarf any bound a regression check can use.
 * So the session loop is cut into ~20 ms windows, each bracketed by
 * a fixed reference loop (hash-map inserts and integer formatting,
 * no HTH code). Every time is reported rescaled to the speed at
 * which that loop takes CALIB_REF_NS:
 *     t_reported = t_measured * CALIB_REF_NS / t_calibration
 * with t_calibration the mean of the window's two bracketing
 * calibrations. The rescaled times read as milliseconds on the
 * reference host (4-core 2.1 GHz container); calib_ms in the traced
 * output gives the raw reference time of the run.
 *
 * --trace 0 times whole sessions only and prints the end-to-end
 * metrics. --trace 1 additionally timestamps each layer boundary of
 * every session (construct, world, monitor, check, teardown), folds
 * in the monitor's own phase breakdown and work counters, prints the
 * per-layer metrics, and writes the boundary spans of the first
 * sessions as a Chrome/Perfetto trace_event file to --trace-out.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
 * A session fails when its verdict or its output differs from what
 * the workload expects.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/Hth.hh"
#include "workloads/AnomalyCorpus.hh"
#include "workloads/Exploits.hh"
#include "workloads/GuestLib.hh"
#include "workloads/Macro.hh"
#include "workloads/Micro.hh"
#include "workloads/SyntheticPolicy.hh"
#include "workloads/Trusted.hh"

using namespace hth;
using namespace hth::workloads;

namespace
{

uint64_t
nowNs()
{
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

constexpr int CALIB_ROUNDS = 10000;
constexpr double CALIB_REF_NS = 0.75e6;
volatile uint64_t calibSink;

/** Wall time of the fixed reference loop (see file comment). */
uint64_t
calibrateNs()
{
    uint64_t begin = nowNs();
    std::unordered_map<uint64_t, std::string> table;
    uint64_t x = 88172645463325252ull, sink = 0;
    for (int i = 0; i < CALIB_ROUNDS; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[x % 4096] = std::to_string(x);
        sink += table.size();
    }
    calibSink = sink;
    return nowNs() - begin;
}

/** One monitored program with its expected outcome. */
struct Job
{
    Scenario scenario;
    HthOptions options;

    /** Output check beyond the verdict (custom guests only). */
    std::function<bool(Hth &, const Report &)> check;
};

/** The paper's classification, as workloads::runScenario judges it. */
bool
verdictMatches(const Scenario &s, const Report &report)
{
    return report.flagged() == s.expectMalicious &&
           (!s.expectMalicious || report.flagged(s.expectSeverity));
}

std::vector<Scenario>
corpusScenarios()
{
    std::vector<Scenario> all;
    for (auto &&list :
         {executionFlowScenarios(), resourceAbuseScenarios(),
          infoFlowScenarios(), macroScenarios(),
          trustedProgramScenarios(), exploitScenarios(),
          anomalyScenarios()})
        for (auto &s : list)
            all.push_back(std::move(s));
    return all;
}

std::vector<Job>
corpusJobs(std::mt19937_64 &rng, const std::string &extra_rules)
{
    std::vector<Job> jobs;
    for (Scenario &s : corpusScenarios()) {
        if (s.reseed)
            s.reseed(s, (uint32_t)rng());
        Job job;
        job.options.taintTracking = !s.disableTaint;
        job.options.extraPolicyRules = extra_rules;
        job.scenario = std::move(s);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::vector<uint8_t>
randomBytes(std::mt19937_64 &rng, size_t n)
{
    std::vector<uint8_t> out(n);
    for (uint8_t &b : out)
        b = (uint8_t)(1 + rng() % 255);
    return out;
}

constexpr int COMPUTE_BYTES = 32;
constexpr int COMPUTE_ITERS = 1500;

/**
 * A data-flow-heavy guest: adds a binary-resident source buffer into
 * an accumulator (index + 1) * COMPUTE_ITERS times (every byte a
 * tainted load, add and store), then writes the accumulator to
 * stdout. Variants differ in length so the latency tail is a long
 * guest, not scheduling jitter.
 */
Job
computeJob(std::mt19937_64 &rng, int index)
{
    const int iters = (index + 1) * COMPUTE_ITERS;
    std::vector<uint8_t> src = randomBytes(rng, COMPUTE_BYTES);
    std::string path = "/bench/compute" + std::to_string(index);

    Gasm a(path);
    a.dataBytes("src", src);
    a.dataSpace("acc", COMPUTE_BYTES);
    a.label("main");
    a.entry("main");
    a.movi(Reg::Ebp, 0);
    a.label("outer");
    a.movi(Reg::Edx, 0);
    a.label("inner");
    a.leaSym(Reg::Esi, "src");
    a.add(Reg::Esi, Reg::Edx);
    a.loadb(Reg::Eax, Reg::Esi, 0);
    a.leaSym(Reg::Edi, "acc");
    a.add(Reg::Edi, Reg::Edx);
    a.loadb(Reg::Ecx, Reg::Edi, 0);
    a.add(Reg::Eax, Reg::Ecx);
    a.storeb(Reg::Edi, 0, Reg::Eax);
    a.addi(Reg::Edx, 1);
    a.cmpi(Reg::Edx, COMPUTE_BYTES);
    a.jl("inner");
    a.addi(Reg::Ebp, 1);
    a.cmpi(Reg::Ebp, iters);
    a.jl("outer");
    a.writeSym(1, "acc", COMPUTE_BYTES);
    a.exit(0);
    auto image = a.build();

    std::string expected;
    for (uint8_t b : src)
        expected += (char)(uint8_t)(b * iters);

    Job job;
    job.scenario.id = "compute" + std::to_string(index);
    job.scenario.path = path;
    job.scenario.setup = [image](os::Kernel &k) {
        k.vfs().addBinary(image->path, image);
    };
    job.check = [expected](Hth &, const Report &r) {
        return r.status == os::RunStatus::Done && r.exitCode == 0 &&
               r.stdoutData == expected;
    };
    return job;
}

constexpr int EVENT_ROUNDS = 50;
constexpr int EVENT_CHUNK = 16;

/**
 * A syscall-heavy guest: (index + 1) * EVENT_ROUNDS times (variants
 * differ in length, as for computeJob), copies the head of a
 * user-named input file to a user-named output file (a clean flow)
 * and to a hard-coded cache file (user-named source into a
 * hard-coded target: a Low information-flow warning per the §4.3
 * matrix), then echoes the chunk to stdout.
 */
Job
eventsJob(std::mt19937_64 &rng, int index)
{
    std::vector<uint8_t> data = randomBytes(rng, 2 * EVENT_CHUNK);
    std::string path = "/bench/events" + std::to_string(index);
    std::string in = "/data/in" + std::to_string(rng() % 100000);
    std::string out = "/tmp/out" + std::to_string(rng() % 100000);
    const std::string cache = "/var/cache/events.dat";

    Gasm a(path);
    a.dataString("cache", cache);
    a.dataSpace("buf", EVENT_CHUNK);
    a.dataSpace("argv_slot", 4);
    a.dataSpace("fd_slot", 4);
    a.dataSpace("round_slot", 4);
    auto save = [&a](const std::string &slot, Reg r) {
        a.leaSym(Reg::Edi, slot);
        a.store(Reg::Edi, 0, r);
    };
    auto restore = [&a](const std::string &slot, Reg r) {
        a.leaSym(Reg::Edi, slot);
        a.load(r, Reg::Edi, 0);
    };
    auto writeBufTo = [&](Reg path_reg) {
        a.creatReg(path_reg);
        save("fd_slot", Reg::Eax);
        a.writeFd(Reg::Eax, "buf", EVENT_CHUNK);
        restore("fd_slot", Reg::Ebx);
        a.closeFd(Reg::Ebx);
    };

    a.label("main");
    a.entry("main");
    save("argv_slot", Reg::Ebx);
    a.movi(Reg::Eax, 0);
    save("round_slot", Reg::Eax);
    a.label("round");
    restore("argv_slot", Reg::Ebx);
    a.loadArgv(1);
    a.openReg(Reg::Eax, GO_RDONLY);
    save("fd_slot", Reg::Eax);
    a.readFd(Reg::Eax, "buf", EVENT_CHUNK);
    restore("fd_slot", Reg::Ebx);
    a.closeFd(Reg::Ebx);
    restore("argv_slot", Reg::Ebx);
    a.loadArgv(2);
    writeBufTo(Reg::Eax);
    a.leaSym(Reg::Eax, "cache");
    writeBufTo(Reg::Eax);
    restore("round_slot", Reg::Eax);
    a.addi(Reg::Eax, 1);
    save("round_slot", Reg::Eax);
    a.cmpi(Reg::Eax, (index + 1) * EVENT_ROUNDS);
    a.jl("round");
    a.writeSym(1, "buf", EVENT_CHUNK);
    a.exit(0);
    auto image = a.build();

    std::string content(data.begin(), data.end());
    std::string chunk = content.substr(0, EVENT_CHUNK);

    Job job;
    job.scenario.id = "events" + std::to_string(index);
    job.scenario.path = path;
    job.scenario.argv = {path, in, out};
    job.scenario.expectMalicious = true;
    job.scenario.expectSeverity = secpert::Severity::Low;
    job.scenario.setup = [image, in, content](os::Kernel &k) {
        k.vfs().addBinary(image->path, image);
        k.vfs().addFile(in, content);
    };
    job.check = [chunk, out, cache](Hth &hth, const Report &r) {
        auto holds = [&](const std::string &file) {
            auto node = hth.kernel().vfs().lookup(file);
            return node && std::string(node->content.begin(),
                                       node->content.end()) == chunk;
        };
        bool lowOnly = true;
        for (const auto &w : r.warnings)
            lowOnly = lowOnly && w.severity == secpert::Severity::Low;
        return r.status == os::RunStatus::Done && r.exitCode == 0 &&
               r.stdoutData == chunk && holds(out) && holds(cache) &&
               lowOnly;
    };
    return job;
}

constexpr int GUEST_VARIANTS = 5;
constexpr int SYNTHETIC_RULES = 500;

/** The workload's inputs, generated from the seed alone. */
std::vector<Job>
makeJobs(const std::string &workload, uint64_t seed)
{
    std::seed_seq seq{(uint32_t)seed, (uint32_t)(seed >> 32),
                      (uint32_t)std::hash<std::string>{}(workload)};
    std::mt19937_64 rng(seq);
    std::vector<Job> jobs;
    if (workload == "corpus") {
        jobs = corpusJobs(rng, "");
    } else if (workload == "manyrules") {
        SyntheticPolicyConfig syn;
        syn.ruleCount = SYNTHETIC_RULES;
        syn.seed = rng();
        jobs = corpusJobs(rng, syntheticPolicy(syn));
    } else if (workload == "compute") {
        for (int i = 0; i < GUEST_VARIANTS; ++i)
            jobs.push_back(computeJob(rng, i));
    } else if (workload == "events") {
        for (int i = 0; i < GUEST_VARIANTS; ++i)
            jobs.push_back(eventsJob(rng, i));
    }
    return jobs;
}

/** The layers of a session, in the order they run. */
constexpr std::array<const char *, 5> LAYERS = {
    "construct", "world", "monitor", "check", "teardown"};
constexpr size_t MONITOR_LAYER = 2;

/** What a traced session records. */
struct SessionTrace
{
    /** Layer boundaries: stamps[k] .. stamps[k + 1] is LAYERS[k]. */
    std::array<uint64_t, LAYERS.size() + 1> stamps{};
    obs::PhaseBreakdown phases;  //!< monitor()'s own breakdown
    size_t job = 0;
    size_t warnings = 0;
};

/**
 * Run one session. With @p trace set, the layer boundaries and the
 * monitor's phase breakdown are recorded into it and its work
 * counters are merged into @p counters. Returns whether verdict and
 * output are as expected.
 */
bool
runSession(const Job &job, SessionTrace *trace,
           obs::MetricSnapshot *counters)
{
    auto stamp = [trace](size_t boundary) {
        if (trace)
            trace->stamps[boundary] = nowNs();
    };
    stamp(0);
    auto hth = std::make_unique<Hth>(job.options);
    stamp(1);
    const Scenario &s = job.scenario;
    if (s.setup)
        s.setup(hth->kernel());
    stamp(2);
    std::vector<std::string> argv = s.argv;
    if (argv.empty())
        argv.push_back(s.path);
    Report report = hth->monitor(s.path, argv, s.env, s.stdinData);
    stamp(3);
    bool ok = verdictMatches(s, report) &&
              (!job.check || job.check(*hth, report));
    stamp(4);
    hth.reset();
    stamp(5);
    if (trace) {
        trace->phases = report.telemetry.phases;
        trace->warnings = report.warnings.size();
        counters->merge(report.telemetry.metrics);
    }
    return ok;
}

/** Nearest-rank quantile. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    size_t rank = (size_t)(q * (double)(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

/** Appends `"name": {"value": v, "unit": "u"}` entries. */
class MetricsJson
{
  public:
    void
    add(const char *name, double value, const char *unit)
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      body_.empty() ? "" : ", ", name, value, unit);
        body_ += buf;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

constexpr size_t MAX_EXPORTED_SESSIONS = 512;

/** Chrome/Perfetto trace_event file of the first traced sessions. */
void
writeSpans(const std::string &path, const std::vector<Job> &jobs,
           const std::vector<SessionTrace> &traces)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "hthbench: cannot write " << path << "\n";
        return;
    }
    size_t count = std::min(traces.size(), MAX_EXPORTED_SESSIONS);
    uint64_t origin = count ? traces.front().stamps.front() : 0;
    out << "{\"traceEvents\": [";
    const char *sep = "";
    auto span = [&](const char *name, uint64_t begin, uint64_t end,
                    size_t job) {
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": 1, \"args\": {\"job\": %zu}}",
                      sep, name, (double)(begin - origin) / 1e3,
                      (double)(end - begin) / 1e3, job);
        out << buf;
        sep = ",";
    };
    for (size_t i = 0; i < count; ++i) {
        const SessionTrace &t = traces[i];
        span("session", t.stamps.front(), t.stamps.back(), t.job);
        for (size_t k = 0; k < LAYERS.size(); ++k)
            span(LAYERS[k], t.stamps[k], t.stamps[k + 1], t.job);
    }
    out << "\n], \"metadata\": {\"jobs\": [";
    for (size_t i = 0; i < jobs.size(); ++i) {
        std::string id;
        for (char c : jobs[i].scenario.id)
            if (c != '"' && c != '\\')
                id += c;
        out << (i ? ", " : "") << "\"" << id << "\"";
    }
    out << "]}}\n";
}

constexpr int SETUP_REPS = 7;
constexpr uint64_t WINDOW_NS = 20000000;

int
usage()
{
    std::cerr << "usage: hthbench --workload corpus|compute|events|"
                 "manyrules --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceOut;
    uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            trace = std::atoi(value.c_str());
        else if (flag == "--trace-out")
            traceOut = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1))
        return usage();

    // Set-up: generate the inputs and run each once untimed (warm
    // allocator and caches, first-touch page faults). Repeated so
    // that setup_s is a median, not one noisy sample.
    std::vector<Job> jobs;
    std::vector<double> setupNs;
    uint64_t warmFailures = 0;
    for (int rep = 0; rep < SETUP_REPS; ++rep) {
        uint64_t calibBefore = calibrateNs();
        uint64_t begin = nowNs();
        jobs = makeJobs(workload, seed);
        if (jobs.empty())
            return usage();
        for (const Job &job : jobs)
            warmFailures += runSession(job, nullptr, nullptr) ? 0 : 1;
        double ns = (double)(nowNs() - begin);
        double calib = (double)(calibBefore + calibrateNs()) / 2;
        setupNs.push_back(ns * CALIB_REF_NS / calib);
    }

    std::mt19937_64 order(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<size_t> perm(jobs.size());
    for (size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;

    // Measured sessions: raw wall time and the window it ran in.
    // calib[w] is taken before window w; the last one closes it.
    std::vector<uint64_t> sessionNs, calib;
    std::vector<size_t> windowOf;
    std::vector<SessionTrace> traces;
    obs::MetricSnapshot counters;
    uint64_t failed = 0;
    const uint64_t budgetNs = (uint64_t)(seconds * 1e9);
    const uint64_t start = nowNs();
    uint64_t end = start, windowStart = 0;
    while (end - start < budgetNs) {
        std::shuffle(perm.begin(), perm.end(), order);
        for (size_t j : perm) {
            if (calib.empty() || nowNs() - windowStart >= WINDOW_NS) {
                calib.push_back(calibrateNs());
                windowStart = nowNs();
            }
            SessionTrace st;
            st.job = j;
            uint64_t begin = nowNs();
            bool ok = runSession(jobs[j], trace ? &st : nullptr,
                                 &counters);
            end = nowNs();
            sessionNs.push_back(end - begin);
            windowOf.push_back(calib.size() - 1);
            failed += ok ? 0 : 1;
            if (trace)
                traces.push_back(st);
        }
    }
    calib.push_back(calibrateNs());

    // scale[i] rescales session i's times to the reference speed.
    std::vector<double> scale, normSession;
    double normTotalNs = 0;
    for (size_t i = 0; i < sessionNs.size(); ++i) {
        size_t w = windowOf[i];
        scale.push_back(CALIB_REF_NS /
                        ((double)(calib[w] + calib[w + 1]) / 2));
        normSession.push_back((double)sessionNs[i] * scale[i]);
        normTotalNs += normSession.back();
    }
    const double n = (double)sessionNs.size();

    MetricsJson m;
    if (!trace) {
        m.add("session_ms", quantile(normSession, 0.5) / 1e6, "ms");
        m.add("session_p90_ms", quantile(normSession, 0.9) / 1e6,
              "ms");
        m.add("sessions_per_s", n / (normTotalNs / 1e9), "1/s");
        m.add("setup_s", quantile(setupNs, 0.5) / 1e9, "s");
    } else {
        std::array<double, LAYERS.size()> layerNs{};
        std::array<double, obs::PHASE_COUNT> phaseNs{};
        double reportNs = 0, warnings = 0;
        for (size_t i = 0; i < traces.size(); ++i) {
            const SessionTrace &t = traces[i];
            for (size_t k = 0; k < LAYERS.size(); ++k)
                layerNs[k] +=
                    scale[i] * (double)(t.stamps[k + 1] - t.stamps[k]);
            for (size_t p = 0; p < obs::PHASE_COUNT; ++p)
                phaseNs[p] += scale[i] * (double)t.phases.ns[p];
            // What monitor() spends outside its profiled window: the
            // telemetry harvest, transcript and fire-trace strings,
            // provenance assembly.
            uint64_t monitorNs = t.stamps[MONITOR_LAYER + 1] -
                                 t.stamps[MONITOR_LAYER];
            if (monitorNs > t.phases.totalNs)
                reportNs +=
                    scale[i] * (double)(monitorNs - t.phases.totalNs);
            warnings += (double)t.warnings;
        }
        auto perSessionUs = [n](double ns) { return ns / 1e3 / n; };
        auto phaseUs = [&](obs::Phase p) {
            return perSessionUs(phaseNs[(size_t)p]);
        };
        auto perSession = [&](const char *counter) {
            return (double)counters.counter(counter) / n;
        };
        auto pct = [](uint64_t part, uint64_t whole) {
            return whole ? 100.0 * (double)part / (double)whole : 0.0;
        };
        std::vector<double> calibNs(calib.begin(), calib.end());
        m.add("traced_session_ms", quantile(normSession, 0.5) / 1e6,
              "ms");
        m.add("calib_ms", quantile(calibNs, 0.5) / 1e6, "ms");
        for (size_t k = 0; k < LAYERS.size(); ++k)
            m.add((std::string(LAYERS[k]) + "_us").c_str(),
                  perSessionUs(layerNs[k]), "us");
        m.add("spawn_load_us", phaseUs(obs::Phase::Setup), "us");
        m.add("vm_execute_us", phaseUs(obs::Phase::VmExecute), "us");
        m.add("taint_ops_us", phaseUs(obs::Phase::TaintOps), "us");
        m.add("kernel_us", phaseUs(obs::Phase::Kernel), "us");
        m.add("event_dispatch_us", phaseUs(obs::Phase::EventDispatch),
              "us");
        m.add("clips_match_us", phaseUs(obs::Phase::ClipsMatch), "us");
        m.add("clips_fire_us", phaseUs(obs::Phase::ClipsFire), "us");
        m.add("static_analysis_us",
              phaseUs(obs::Phase::StaticAnalysis), "us");
        m.add("report_us", perSessionUs(reportNs), "us");
        m.add("guest_insns", perSession("vm.instructions"), "count");
        m.add("syscalls", perSession("os.syscalls"), "count");
        m.add("events_analyzed", perSession("secpert.events_analyzed"),
              "count");
        m.add("rule_fires", perSession("clips.fires"), "count");
        m.add("join_attempts", perSession("clips.rete.join_attempts"),
              "count");
        m.add("images_analyzed", perSession("harrier.images_analyzed"),
              "count");
        m.add("warnings", warnings / n, "count");
        double vmNs = phaseNs[(size_t)obs::Phase::VmExecute];
        m.add("vm_minsns_per_s",
              vmNs > 0 ? (double)counters.counter("vm.instructions") *
                             1e3 / vmNs
                       : 0.0,
              "M/s");
        uint64_t bbHits = counters.counter("vm.block_cache.hits");
        m.add("block_cache_hit_pct",
              pct(bbHits,
                  bbHits + counters.counter("vm.block_cache.misses")),
              "%");
        m.add("superblock_insn_pct",
              pct(counters.counter("vm.dispatch.superblock_insns"),
                  counters.counter("vm.instructions")),
              "%");
        m.add("union_cache_hit_pct",
              pct(counters.counter("taint.tags.union_cache_hits"),
                  counters.counter("taint.tags.union_calls")),
              "%");
        if (!traceOut.empty())
            writeSpans(traceOut, jobs, traces);
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": "
                "%" PRIu64 ", \"metrics\": %s}\n",
                failed == 0 && warmFailures == 0 ? "true" : "false",
                sessionNs.size(), failed, m.str().c_str());
    return 0;
}
