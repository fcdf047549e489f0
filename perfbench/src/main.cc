// Copyright (c) saedb authors. Licensed under the MIT license.
//
// saebench: the repository benchmark program (see perfbench/README.md).
//
//   saebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file.tsv>] [--quick]
//   saebench --selftest
//
// A run prints a human-readable report, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. It exits non-zero
// when any correctness check fails. --selftest checks the oracle against
// deliberately wrong answers and that inputs are a pure function of the
// seed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dbms/query.h"
#include "inputs.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: saebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--quick]\n"
               "       saebench --selftest\n");
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// The oracle must reject each deliberately wrong answer and accept the
// honest one; seeds must reproduce inputs exactly and differ from each
// other.
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  WorkloadSpec spec;
  LookupWorkload("sae-scan-uniform", /*quick=*/true, &spec);
  Inputs inputs = MakeInputs(spec, 7);
  Oracle oracle(inputs.dataset);
  const std::vector<Record>& data = inputs.dataset;
  Key lo = data[data.size() / 3].key;
  Key hi = data[data.size() / 3 + 40].key;
  std::vector<Record> range;
  for (const Record& r : data) {
    if (r.key >= lo && r.key <= hi) range.push_back(r);
  }
  for (QueryRequest request :
       {QueryRequest::Scan(lo, hi), QueryRequest::Count(lo, hi),
        QueryRequest::Sum(lo, hi), QueryRequest::Min(lo, hi),
        QueryRequest::Max(lo, hi), QueryRequest::TopK(lo, hi, kTopK),
        QueryRequest::Point(lo)}) {
    std::vector<Record> witness;
    for (const Record& r : range) {
      if (r.key <= request.hi) witness.push_back(r);
    }
    QueryAnswer honest = sae::dbms::EvaluateAnswer(request, witness);
    std::string op = sae::dbms::QueryOpName(request.op);
    expect(oracle.Check(request, honest, witness).empty(),
           "oracle accepts the honest " + op + " answer");

    QueryAnswer wrong = honest;
    wrong.count += 1;
    expect(!oracle.Check(request, wrong, witness).empty(),
           "oracle rejects a wrong " + op + " count");
    wrong = honest;
    wrong.sum ^= 1;
    expect(!oracle.Check(request, wrong, witness).empty(),
           "oracle rejects a wrong " + op + " sum");
    wrong = honest;
    wrong.max_key += 1;
    expect(!oracle.Check(request, wrong, witness).empty(),
           "oracle rejects a wrong " + op + " max");
    std::vector<Record> short_witness(witness.begin() + 1, witness.end());
    expect(!oracle.Check(request, honest, short_witness).empty(),
           "oracle rejects a " + op + " witness missing a record");
    if (request.op == sae::dbms::QueryOp::kTopK) {
      wrong = honest;
      std::swap(wrong.records[0], wrong.records[1]);
      expect(!oracle.Check(request, wrong, witness).empty(),
             "oracle rejects a misordered top-k");
    }
  }

  for (const std::string& name : WorkloadNames()) {
    LookupWorkload(name, /*quick=*/true, &spec);
    uint64_t a = Fingerprint(MakeInputs(spec, 1), 200);
    uint64_t b = Fingerprint(MakeInputs(spec, 1), 200);
    uint64_t c = Fingerprint(MakeInputs(spec, 2), 200);
    expect(a == b, name + ": one seed reproduces its inputs exactly");
    expect(a != c, name + ": two seeds produce different inputs");
  }
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (arg == "--quick") {
      config.quick = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  RunReport report = RunWorkload(config);
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());

  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.errors.push_back(m.name + " is not a finite number");
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  bool correct = report.errors.empty() && report.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", (unsigned long long)report.attempted,
      (unsigned long long)report.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
