// Minimal zero-dependency JSON support for the telemetry exporters: a
// streaming writer (used for bench reports, metric snapshots and Chrome
// trace files) and a small recursive-descent parser (used by tests for
// round-trip checks and by bench_compare, which reads `--json-out`
// reports). Not a general-purpose JSON library: numbers are doubles,
// objects preserve insertion order, and inputs larger than a snapshot
// file were never a design goal.

#ifndef HDOV_TELEMETRY_JSON_H_
#define HDOV_TELEMETRY_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace hdov::telemetry {

// Appends `text` to `out` with JSON string escaping (quotes included).
void AppendJsonString(std::string* out, std::string_view text);

// Streaming JSON writer. The caller is responsible for well-formedness
// (matching Begin/End, Key before every object value); commas are
// inserted automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  // Writes the shortest decimal that parses back to `value` bit for bit;
  // Inf and NaN become null.
  JsonWriter& Number(double value);
  JsonWriter& Number(uint64_t value);
  // Splices pre-serialized JSON in as one value; the caller guarantees
  // `json` is a complete well-formed document fragment.
  JsonWriter& Raw(std::string_view json);

  std::string TakeString() { return std::move(out_); }

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_;
  bool after_key_ = false;
};

// Parsed JSON value. Numbers are stored as doubles (telemetry counters
// stay exact up to 2^53, far beyond any simulated run).
struct JsonValue {
  enum class Type : uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                                 // kArray.
  std::vector<std::pair<std::string, JsonValue>> members;       // kObject.

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Parses a complete JSON document (trailing whitespace allowed, trailing
// garbage rejected).
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_JSON_H_
