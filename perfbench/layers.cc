// The benchmark's layer tool: calls each tgdkit layer's public functions
// in-process, records a span around every call, and prints the per-layer
// metrics as one JSON line. perfbench/layers.py drives it; run.py builds
// it. Spans are kept in memory and written when the run ends.
//
//   perfbench_layers adversarial SEED COUNT
//       COUNT rulesets from the src/gen adversarial shape families, one
//       JSON object {"shape", "program"} per line.
//   perfbench_layers checkpoints RULES FACTS DEPTH PARTS
//       Chases RULES over FACTS at one lane and prints one JSON object
//       {"steps", "every", "periodic"}: the governor steps of the run,
//       the cadence steps/PARTS to pass to --checkpoint-every-steps, and
//       how many periodic checkpoints that cadence fires (the CLI writes
//       one more snapshot at the end).
//   perfbench_layers trace CONFIG SECONDS SPANS_OUT OUT_DIR
//       Runs whole rounds of the jobs in CONFIG until SECONDS have
//       passed. CONFIG lines:
//         threads N                      lanes of the parallel chase
//         job RULES FACTS DEPTH EXPLAIN  one chase job (EXPLAIN 0 or 1)
//         query TEXT                     query of the job above
//         serve SOCKET FRAMES CACHE_MB   replay FRAMES against an
//                                        in-process server on SOCKET
//                                        with a CACHE_MB result cache
//       Writes OUT_DIR/job<k>.{facts,answers,explain,stats} and
//       OUT_DIR/serve.replies from the first round for the output checks.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analysis.h"
#include "analyze/lint.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "classify/criteria.h"
#include "data/instance.h"
#include "dep/skolem.h"
#include "gen/generators.h"
#include "parse/parser.h"
#include "query/query.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "snapshot/snapshot.h"
#include "transform/nested.h"

namespace tgdkit {
namespace {

using Clock = std::chrono::steady_clock;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "perfbench_layers: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_layers: %s\n", what.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------- spans

/// One timed call into a layer. `parent` indexes the enclosing span (-1
/// for a root); `op` identifies the job or request the span belongs to.
struct Span {
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
  int64_t op;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one.
  void Begin(const std::string& name, int64_t op) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, Now(), 0, parent, op});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost span; returns its duration in seconds.
  double End() {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end_ns = Now();
    return (span.end_ns - span.start_ns) / 1e9;
  }

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
    }
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Runs `body` inside a span and returns the span's duration in seconds.
template <typename F>
double Timed(Tracer* tracer, const std::string& name, int64_t op, F&& body) {
  tracer->Begin(name, op);
  body();
  return tracer->End();
}

// -------------------------------------------------------------- config

struct Job {
  std::string rules_path;
  std::string facts_path;
  uint32_t max_depth = 256;
  bool explain = false;
  std::string query;
};

struct Config {
  uint32_t threads = 4;
  std::vector<Job> jobs;
  std::string serve_socket;
  std::string serve_frames;
  uint64_t serve_cache_mb = 0;
};

Config ReadConfig(const std::string& path) {
  Config config;
  std::istringstream in(ReadFileOrDie(path));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string key;
    words >> key;
    if (key == "threads") {
      words >> config.threads;
    } else if (key == "job") {
      Job job;
      int explain = 0;
      words >> job.rules_path >> job.facts_path >> job.max_depth >> explain;
      job.explain = explain != 0;
      config.jobs.push_back(job);
    } else if (key == "query") {
      if (config.jobs.empty()) Die("query before any job");
      config.jobs.back().query = line.substr(6);
    } else if (key == "serve") {
      words >> config.serve_socket >> config.serve_frames >>
          config.serve_cache_mb;
    } else if (!key.empty()) {
      Die("unknown config line: " + line);
    }
  }
  return config;
}

// ------------------------------------------------------------- metrics

/// Per-round sums of every metric; the run reports each one's median
/// over rounds (maxima for *max* metrics are per round too).
using Round = std::map<std::string, double>;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// Skolemizes every dependency of a program into one rule set, as the
/// CLI does before chasing.
SoTgd ProgramRules(TermArena* arena, Vocabulary* vocab,
                   const DependencyProgram& program) {
  std::vector<SoTgd> pieces;
  std::vector<Tgd> tgds = program.Tgds();
  if (!tgds.empty()) pieces.push_back(TgdsToSo(arena, vocab, tgds));
  std::vector<HenkinTgd> henkins = program.Henkins();
  if (!henkins.empty()) pieces.push_back(HenkinsToSo(arena, vocab, henkins));
  for (const NestedTgd& nested : program.Nesteds()) {
    pieces.push_back(NestedToSo(arena, vocab, nested));
  }
  for (const SoTgd& so : program.Sos()) pieces.push_back(so);
  return MergeSo(pieces);
}

/// Runs every layer once over one job, adding to `round`. On the first
/// round the job's outputs go to OUT_DIR for the checks.
void RunJob(const Config& config, const Job& job, size_t index, int64_t op,
            bool write_outputs, const std::string& out_dir, Tracer* tracer,
            Round* round) {
  Round& r = *round;
  tracer->Begin("job", op);
  std::string rules_text = ReadFileOrDie(job.rules_path);
  std::string facts_text = ReadFileOrDie(job.facts_path);

  Vocabulary vocab;
  TermArena arena;
  Parser parser(&arena, &vocab);
  Instance input(&vocab);
  std::optional<DependencyProgram> program;
  std::optional<ConjunctiveQuery> query;
  r["parse.s"] += Timed(tracer, "parse", op, [&] {
    Result<DependencyProgram> parsed = parser.ParseDependencies(rules_text);
    if (!parsed.ok()) Die(job.rules_path + ": " + parsed.status().ToString());
    program = std::move(*parsed);
    Status status = parser.ParseInstanceInto(facts_text, &input);
    if (!status.ok()) Die(job.facts_path + ": " + status.ToString());
    if (!job.query.empty()) {
      Result<ConjunctiveQuery> q = parser.ParseQuery(job.query);
      if (!q.ok()) Die("query: " + q.status().ToString());
      query = std::move(*q);
    }
  });
  r["parse.bytes"] += rules_text.size() + facts_text.size() + job.query.size();

  SoTgd rules;
  r["skolemize.s"] += Timed(tracer, "skolemize", op, [&] {
    rules = ProgramRules(&arena, &vocab, *program);
  });

  r["analyze.s"] += Timed(tracer, "analyze", op, [&] {
    AnalyzeProgram(&arena, &vocab, *program);
    ClassifyFigure2(arena, rules);
    LintProgram(&arena, &vocab, *program);
  });

  ChaseLimits limits;
  limits.max_term_depth = job.max_depth;
  limits.threads = 1;

  // 1 lane: construction, then each round's Step() in its own span.
  tracer->Begin("chase", op);
  std::unique_ptr<ChaseEngine> engine;
  r["chase.init_s"] += Timed(tracer, "chase.init", op, [&] {
    engine = std::make_unique<ChaseEngine>(&arena, &vocab, rules, input,
                                           limits);
  });
  double max_step = 0;
  while (!engine->done()) {
    double step = Timed(tracer, "chase.step", op, [&] { engine->Step(); });
    r["chase.step_s"] += step;
    max_step = std::max(max_step, step);
  }
  tracer->End();
  r["chase.max_step_s"] = std::max(r["chase.max_step_s"], max_step);
  r["chase.rounds"] += engine->rounds();
  r["chase.facts_created"] += engine->facts_created();
  r["chase.steps"] += engine->governor().steps();
  r["term.arena_terms"] += arena.size();
  r["term.arena_mb"] += arena.ApproxBytes() / kMiB;
  r["instance.mb"] += engine->instance().ApproxBytes() / kMiB;
  r["instance.index_mb"] += engine->instance().IndexBytes() / kMiB;

  std::string rendered;
  r["render.s"] += Timed(tracer, "render", op, [&] {
    rendered = engine->instance().ToString();
  });
  r["render.mb"] += rendered.size() / kMiB;

  // Parallel lanes, on its own arena and vocabulary: a second parse is
  // not timed, so the parallel chase starts from the same state.
  {
    Vocabulary par_vocab;
    TermArena par_arena;
    Parser par_parser(&par_arena, &par_vocab);
    Instance par_input(&par_vocab);
    Result<DependencyProgram> par_program =
        par_parser.ParseDependencies(rules_text);
    if (!par_program.ok() ||
        !par_parser.ParseInstanceInto(facts_text, &par_input).ok()) {
      Die("re-parse failed");
    }
    SoTgd par_rules = ProgramRules(&par_arena, &par_vocab, *par_program);
    ChaseLimits par_limits = limits;
    par_limits.threads = config.threads;
    tracer->Begin("chase_par", op);
    ChaseEngine par_engine(&par_arena, &par_vocab, par_rules, par_input,
                           par_limits);
    while (!par_engine.done()) {
      r["chase.step_par_s"] +=
          Timed(tracer, "chase.step_par", op, [&] { par_engine.Step(); });
    }
    tracer->End();
    r["contract.ops"] += 1;
    if (par_engine.instance().ToString() != rendered) {
      r["contract.failed"] += 1;
    }
  }

  if (query.has_value()) {
    std::vector<std::vector<Value>> answers;
    r["query.eval_s"] += Timed(tracer, "query", op, [&] {
      answers = Evaluate(arena, engine->instance(), *query);
    });
    r["query.answers"] += answers.size();
    if (write_outputs) {
      std::ofstream out(out_dir + "/job" + std::to_string(index) +
                        ".answers");
      for (const auto& row : answers) {
        for (size_t i = 0; i < row.size(); ++i) {
          out << (i ? ", " : "") << engine->instance().ValueToString(row[i]);
        }
        out << "\n";
      }
    }
  }

  // Snapshot: capture and save the final state, then load it back and
  // build the resume engine from it.
  std::string snap_path =
      out_dir + "/job" + std::to_string(index) + ".snap";
  tracer->Begin("snapshot", op);
  std::optional<ChaseEngineState> state;
  r["snapshot.capture_s"] += Timed(tracer, "snapshot.capture", op, [&] {
    state.emplace(engine->CaptureState());
  });
  r["snapshot.save_s"] += Timed(tracer, "snapshot.save", op, [&] {
    Status status = SaveChaseSnapshot(snap_path, vocab, arena, rules, *state,
                                      0, 0);
    if (!status.ok()) Die("snapshot: " + status.ToString());
  });
  {
    std::ifstream probe(snap_path, std::ios::binary | std::ios::ate);
    r["snapshot.mb"] += static_cast<double>(probe.tellg()) / kMiB;
  }
  std::string resumed;
  r["snapshot.load_s"] += Timed(tracer, "snapshot.load", op, [&] {
    Result<ChaseSnapshot> loaded = LoadChaseSnapshot(snap_path);
    if (!loaded.ok()) Die("snapshot load: " + loaded.status().ToString());
    ChaseSnapshot snap = std::move(*loaded);
    ChaseEngine resume(snap.arena.get(), snap.vocab.get(), snap.rules,
                       std::move(*snap.state), limits);
    resume.Run();
    resumed = resume.instance().ToString();
  });
  tracer->End();
  r["contract.ops"] += 1;
  if (resumed != rendered) r["contract.failed"] += 1;

  if (job.explain) {
    std::vector<TermId> provenance;
    for (uint32_t i = 0; i < engine->instance().num_nulls(); ++i) {
      provenance.push_back(engine->NullProvenance(i));
    }
    ChaseResult result{engine->TakeInstance(), engine->stop_reason(),
                       engine->rounds(), engine->facts_created(),
                       std::move(provenance)};
    std::string explained;
    r["explain.render_s"] += Timed(tracer, "explain", op, [&] {
      for (uint32_t i = 0; i < result.instance.num_nulls(); ++i) {
        Value null = Value::Null(i);
        explained += result.instance.ValueToString(null);
        explained += " = ";
        explained += result.ExplainValue(arena, vocab, null);
        explained += "\n";
      }
    });
    r["explain.mb"] += explained.size() / kMiB;
    if (write_outputs) {
      std::ofstream(out_dir + "/job" + std::to_string(index) + ".explain")
          << explained;
    }
  }
  if (write_outputs) {
    std::ofstream(out_dir + "/job" + std::to_string(index) + ".facts")
        << rendered;
    std::ofstream(out_dir + "/job" + std::to_string(index) + ".stats")
        << engine->rounds() << " " << engine->facts_created() << " "
        << ToString(engine->stop_reason()) << "\n";
  }
  tracer->End();
}

/// One frame of the serve replay: "ping|repeat|fresh" plus the request.
struct Frame {
  std::string kind;
  ServeRequest request;
};

std::vector<Frame> ReadFrames(const std::string& path) {
  std::vector<Frame> frames;
  std::istringstream in(ReadFileOrDie(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    size_t space = line.find(' ');
    Frame frame;
    frame.kind = line.substr(0, space);
    Status status =
        ParseServeRequest(std::string_view(line).substr(space + 1),
                          &frame.request);
    if (!status.ok()) Die("bad frame: " + status.ToString());
    frames.push_back(std::move(frame));
  }
  return frames;
}

/// Replays the frames once through one ServeClient. Latency per command
/// goes to `latencies_ms`; first-round replies go to `replies`.
void ServeRound(const std::vector<Frame>& frames, ServeClient* client,
                int round_index, Tracer* tracer,
                std::map<std::string, std::vector<double>>* latencies_ms,
                std::ostream* replies, Round* round) {
  Round& r = *round;
  tracer->Begin("serve", -1);
  for (size_t j = 0; j < frames.size(); ++j) {
    ServeRequest request = frames[j].request;
    request.id = "r" + std::to_string(round_index) + "." + std::to_string(j);
    if (frames[j].kind == "fresh") {
      request.file_contents[0] += "# fresh " + std::to_string(round_index) +
                                  "." + std::to_string(j) + "\n";
    }
    Result<ServeResponse> response = ServeResponse{};
    for (;;) {
      double seconds = Timed(tracer, "serve.call", static_cast<int64_t>(j),
                             [&] { response = client->Call(request); });
      if (!response.ok()) Die("serve: " + response.status().ToString());
      if (response->status == ServeStatus::kOverloaded) {
        r["serve.sheds"] += 1;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(response->retry_after_ms));
        continue;
      }
      (*latencies_ms)[request.command].push_back(seconds * 1000);
      break;
    }
    if (response->cached) r["serve.cache_hits"] += 1;
    if (replies != nullptr) {
      *replies << "{\"status\":" << JsonString(ToString(response->status))
               << ",\"exit\":" << response->exit_code
               << ",\"stdout\":" << JsonString(response->out)
               << ",\"stderr\":" << JsonString(response->err) << "}\n";
    }
  }
  tracer->End();
}

int Trace(const std::string& config_path, double seconds,
          const std::string& spans_path, const std::string& out_dir) {
  Config config = ReadConfig(config_path);
  Tracer tracer;

  // In-process daemon, as `tgdkit serve --serve-threads 2 --cache-mb N`.
  std::vector<Frame> frames;
  std::unique_ptr<std::thread> server;
  CancellationToken shutdown;
  std::optional<ServeClient> client;
  if (!config.serve_socket.empty()) {
    frames = ReadFrames(config.serve_frames);
    ServeOptions options;
    options.socket_path = config.serve_socket;
    options.threads = 2;
    options.cache_bytes = config.serve_cache_mb << 20;
    options.shutdown = shutdown;
    std::promise<void> ready;
    options.on_ready = [&ready](uint16_t) { ready.set_value(); };
    server = std::make_unique<std::thread>([options] {
      std::ostringstream out, err;
      RunServer(options, out, err);
    });
    ready.get_future().wait();
    Result<ServeClient> connected =
        ServeClient::ConnectUnixSocket(config.serve_socket);
    if (!connected.ok()) Die("connect: " + connected.status().ToString());
    client.emplace(std::move(*connected));
    // Warm-up: every repeated request once, so each round sees the same
    // cache hits.
    for (const Frame& frame : frames) {
      if (frame.kind != "repeat") continue;
      if (!client->Call(frame.request).ok()) Die("serve warm-up failed");
    }
  }

  std::vector<Round> rounds;
  std::map<std::string, std::vector<double>> latencies_ms;
  Clock::time_point start = Clock::now();
  do {
    Round round;
    int round_index = static_cast<int>(rounds.size());
    bool first = rounds.empty();
    round["round.s"] = Timed(&tracer, "round", round_index, [&] {
      for (size_t k = 0; k < config.jobs.size(); ++k) {
        RunJob(config, config.jobs[k], k,
               round_index * 1000 + static_cast<int64_t>(k), first, out_dir,
               &tracer, &round);
      }
      if (client.has_value()) {
        std::ofstream replies;
        if (first) replies.open(out_dir + "/serve.replies");
        ServeRound(frames, &*client, round_index, &tracer, &latencies_ms,
                   first ? &replies : nullptr, &round);
      }
    });
    rounds.push_back(std::move(round));
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           seconds);

  if (client.has_value()) {
    client->Close();
    shutdown.Cancel();
    server->join();
  }
  tracer.Write(spans_path);

  // Self time per span name and round: duration minus the children's.
  std::vector<double> child_ns(tracer.size(), 0);
  for (const Span& span : tracer.spans()) {
    if (span.parent >= 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::vector<int> round_of(tracer.size(), -1);
  int current = -1;
  for (size_t i = 0; i < tracer.size(); ++i) {
    const Span& span = tracer.spans()[i];
    if (span.parent < 0) current = static_cast<int>(span.op);
    round_of[i] = current;
  }
  for (size_t i = 0; i < tracer.size(); ++i) {
    const Span& span = tracer.spans()[i];
    if (round_of[i] < 0 || round_of[i] >= static_cast<int>(rounds.size())) {
      continue;
    }
    double self = (span.end_ns - span.start_ns - child_ns[i]) / 1e9;
    rounds[round_of[i]][span.name + ".self_s"] += self;
  }

  std::map<std::string, std::vector<double>> series;
  for (Round& round : rounds) {
    round["parse.mb_per_s"] = round["parse.bytes"] / kMiB / round["parse.s"];
    round["chase.facts_per_kstep"] =
        round["chase.steps"] > 0
            ? 1000.0 * round["chase.facts_created"] / round["chase.steps"]
            : 0;
    for (const auto& [name, value] : round) series[name].push_back(value);
  }
  std::printf("{\"rounds\":%zu", rounds.size());
  for (const auto& [name, values] : series) {
    std::printf(",%s:%.9g", JsonString(name).c_str(), Median(values));
  }
  for (const auto& [command, values] : latencies_ms) {
    std::printf(",%s:%.9g", JsonString("serve." + command + "_ms").c_str(),
                Median(values));
  }
  std::printf("}\n");
  return 0;
}

/// Chases RULES over FACTS at one lane, with a checkpoint hook every
/// `every` steps unless it is 0; returns the governor steps and adds the
/// hook's calls to `*fires`.
uint64_t CountedChase(const std::string& rules_text,
                      const std::string& facts_text, uint32_t depth,
                      uint64_t every, uint64_t* fires) {
  Vocabulary vocab;
  TermArena arena;
  Parser parser(&arena, &vocab);
  Instance input(&vocab);
  Result<DependencyProgram> program = parser.ParseDependencies(rules_text);
  if (!program.ok()) Die("rules: " + program.status().ToString());
  Status status = parser.ParseInstanceInto(facts_text, &input);
  if (!status.ok()) Die("facts: " + status.ToString());
  SoTgd rules = ProgramRules(&arena, &vocab, *program);
  ChaseLimits limits;
  limits.max_term_depth = depth;
  ChaseEngine engine(&arena, &vocab, rules, input, limits);
  if (every != 0) {
    engine.SetCheckpointHook(every, 0,
                             [fires](const ChaseEngine&) { ++*fires; });
  }
  engine.Run();
  return engine.governor().steps();
}

int Checkpoints(const std::string& rules_path, const std::string& facts_path,
                uint32_t depth, uint64_t parts) {
  std::string rules_text = ReadFileOrDie(rules_path);
  std::string facts_text = ReadFileOrDie(facts_path);
  uint64_t unused = 0;
  uint64_t steps = CountedChase(rules_text, facts_text, depth, 0, &unused);
  uint64_t every = std::max<uint64_t>(1, steps / parts);
  uint64_t periodic = 0;
  CountedChase(rules_text, facts_text, depth, every, &periodic);
  std::printf("{\"steps\":%llu,\"every\":%llu,\"periodic\":%llu}\n",
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(every),
              static_cast<unsigned long long>(periodic));
  return 0;
}

int Adversarial(uint64_t seed, uint32_t count) {
  Rng rng(seed);
  AdversarialConfig config;
  for (uint32_t i = 0; i < count; ++i) {
    auto shape = static_cast<AdversarialShape>(i % kNumAdversarialShapes);
    AdversarialScenario scenario =
        GenerateAdversarialScenario(&rng, shape, config);
    std::printf("{\"shape\":%s,\"program\":%s}\n",
                JsonString(AdversarialShapeName(shape)).c_str(),
                JsonString(scenario.program).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace tgdkit

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 3 && args[0] == "adversarial") {
    return tgdkit::Adversarial(std::stoull(args[1]),
                               static_cast<uint32_t>(std::stoul(args[2])));
  }
  if (args.size() == 5 && args[0] == "checkpoints") {
    return tgdkit::Checkpoints(args[1], args[2],
                               static_cast<uint32_t>(std::stoul(args[3])),
                               std::stoull(args[4]));
  }
  if (args.size() == 5 && args[0] == "trace") {
    return tgdkit::Trace(args[1], std::stod(args[2]), args[3], args[4]);
  }
  std::fprintf(stderr,
               "usage: perfbench_layers adversarial SEED COUNT\n"
               "       perfbench_layers checkpoints RULES FACTS DEPTH PARTS\n"
               "       perfbench_layers trace CONFIG SECONDS SPANS OUT_DIR\n");
  return 1;
}
