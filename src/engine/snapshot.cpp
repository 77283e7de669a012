#include "engine/snapshot.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/integer.h"

namespace wild5g::engine {

json::Value Snapshot::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("format", "wild5g-snapshot");
  doc.set("version", kSnapshotVersion);
  doc.set("request", request_to_json(request));
  doc.set("next_step", static_cast<double>(next_step));
  doc.set("campaign_state", campaign_state);
  doc.set("document_state", document_state);
  return doc;
}

Snapshot Snapshot::from_json(const json::Value& doc) {
  require(doc.is_object(), "snapshot: not an object");
  const auto field = [&](const char* key) -> const json::Value& {
    const json::Value* value = doc.find(key);
    require(value != nullptr,
            std::string("snapshot: missing field '") + key + "'");
    return *value;
  };
  const json::Value& format = field("format");
  require(format.is_string() && format.as_string() == "wild5g-snapshot",
          "snapshot: not a wild5g snapshot document");
  require(integer_from_json<std::int64_t>(field("version"), "snapshot: version",
                                          0, kJsonIntegerMax) ==
              kSnapshotVersion,
          "snapshot: unsupported version (this build speaks version " +
              std::to_string(kSnapshotVersion) + ")");
  Snapshot snapshot;
  snapshot.request = request_from_json(field("request"));
  snapshot.next_step = integer_from_json<std::size_t>(
      field("next_step"), "snapshot: next_step", 0, kJsonIntegerMax);
  snapshot.campaign_state = field("campaign_state");
  snapshot.document_state = field("document_state");
  return snapshot;
}

void save_snapshot(const Snapshot& snapshot, const std::string& path) {
  require(!path.empty(), "save_snapshot: empty path");
  const std::string text = json::dump(snapshot.to_json());
  // Write-then-rename: the soak suite SIGKILLs the service at arbitrary
  // yield points, and a half-written snapshot must never replace a valid
  // one. rename(2) within a directory is atomic; readers see either the
  // old snapshot or the new one, never a prefix.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(),
            "save_snapshot: cannot open '" + tmp + "' for writing");
    out << text;
    out.flush();
    require(out.good(), "save_snapshot: write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("save_snapshot: cannot rename '" + tmp + "' to '" + path +
                "'");
  }
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "load_snapshot: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  require(!in.bad(), "load_snapshot: read from '" + path + "' failed");
  return Snapshot::from_json(json::parse(buffer.str()));
}

}  // namespace wild5g::engine
