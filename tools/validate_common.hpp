#pragma once
// Shared scaffolding of the tools/validate_* CI gates: typed field lookups
// that fail with a one-line "FILE: what" diagnostic, the file slurp + strict
// JSON parse, and the `TOOL FILE...` main loop (exit 2 on usage, 1 on the
// first violation).  Each validator keeps only its schema's checks.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace hetcomm::validate {

using obs::JsonValue;

[[noreturn]] inline void fail(const std::string& file,
                              const std::string& what) {
  throw std::runtime_error(file + ": " + what);
}

inline const JsonValue& require(const std::string& file, const JsonValue& obj,
                                const std::string& key, JsonValue::Kind kind) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(file, "missing field \"" + key + "\"");
  if (v->kind() != kind) fail(file, "field \"" + key + "\" has wrong type");
  return *v;
}

inline const JsonValue& require_number(const std::string& file,
                                       const JsonValue& obj,
                                       const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(file, "missing field \"" + key + "\"");
  if (v->kind() != JsonValue::Kind::Int &&
      v->kind() != JsonValue::Kind::Double) {
    fail(file, "field \"" + key + "\" is not a number");
  }
  return *v;
}

/// A non-negative integer field; `where` names its parent in diagnostics.
inline std::int64_t require_count(const std::string& file,
                                  const JsonValue& obj, const std::string& key,
                                  const std::string& where) {
  const std::int64_t n =
      require(file, obj, key, JsonValue::Kind::Int).as_int();
  if (n < 0) fail(file, where + "." + key + " must be >= 0");
  return n;
}

/// An obs::Summary object: every statistic numeric, count non-negative.
inline void check_summary(const std::string& file, const JsonValue& s,
                          const std::string& where) {
  for (const char* key : {"count", "mean", "p50", "p99", "min", "max"}) {
    require_number(file, s, key);
  }
  if (s.at("count").as_int() < 0) fail(file, where + ".count must be >= 0");
}

/// Read and strictly parse one artifact.
inline JsonValue load(const std::string& file) {
  std::ifstream in(file);
  if (!in) fail(file, "cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonValue::parse(buf.str());
}

/// `tool FILE...`: validate each file in turn.
template <typename Validate>
int run_main(const char* tool, int argc, char** argv, Validate validate) {
  if (argc < 2) {
    std::cerr << "usage: " << tool << " FILE...\n";
    return 2;
  }
  try {
    for (int i = 1; i < argc; ++i) validate(std::string(argv[i]));
  } catch (const std::exception& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace hetcomm::validate
