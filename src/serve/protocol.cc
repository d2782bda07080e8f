#include "serve/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/json.h"

namespace itg {
namespace serve {

// ---------------------------------------------------------------------------
// JSON serialization helpers
// ---------------------------------------------------------------------------

void AppendJsonDouble(double v, std::string* out) {
  if (std::isnan(v)) {
    out->append("NaN");
    return;
  }
  if (std::isinf(v)) {
    out->append(v < 0 ? "-Infinity" : "Infinity");
    return;
  }
  char buf[40];
  // %.17g round-trips every finite IEEE-754 double, which is what lets a
  // subscriber recompute bit-exact state digests from streamed values.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

namespace {

void AppendUint64AsString(uint64_t v, std::string* out) {
  out->push_back('"');
  out->append(std::to_string(v));
  out->push_back('"');
}

// ---------------------------------------------------------------------------
// JSON parser: recursive descent over one line
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& text) : p_(text.c_str()) {}

  StatusOr<Json> ParseDocument() {
    Json v;
    ITG_RETURN_IF_ERROR(ParseValue(&v));
    SkipSpace();
    if (*p_ != '\0') return Err("trailing characters after JSON value");
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("json: " + what);
  }

  void SkipSpace() {
    while (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r') ++p_;
  }

  bool Consume(const char* token) {
    const size_t n = std::strlen(token);
    if (std::strncmp(p_, token, n) != 0) return false;
    p_ += n;
    return true;
  }

  Status ParseValue(Json* out) {
    if (++depth_ > 64) return Err("nesting too deep");
    SkipSpace();
    Status s;
    switch (*p_) {
      case '{':
        s = ParseObject(out);
        break;
      case '[':
        s = ParseArray(out);
        break;
      case '"':
        out->kind = Json::Kind::kString;
        s = ParseString(&out->s);
        break;
      case 't':
        if (!Consume("true")) return Err("bad literal");
        out->kind = Json::Kind::kBool;
        out->b = true;
        s = Status::OK();
        break;
      case 'f':
        if (!Consume("false")) return Err("bad literal");
        out->kind = Json::Kind::kBool;
        out->b = false;
        s = Status::OK();
        break;
      case 'n':
        if (!Consume("null")) return Err("bad literal");
        out->kind = Json::Kind::kNull;
        s = Status::OK();
        break;
      case 'N':
        if (!Consume("NaN")) return Err("bad literal");
        out->kind = Json::Kind::kDouble;
        out->d = std::numeric_limits<double>::quiet_NaN();
        s = Status::OK();
        break;
      case 'I':
        if (!Consume("Infinity")) return Err("bad literal");
        out->kind = Json::Kind::kDouble;
        out->d = std::numeric_limits<double>::infinity();
        s = Status::OK();
        break;
      default:
        s = ParseNumber(out);
    }
    --depth_;
    return s;
  }

  Status ParseObject(Json* out) {
    out->kind = Json::Kind::kObject;
    ++p_;  // '{'
    SkipSpace();
    if (*p_ == '}') {
      ++p_;
      return Status::OK();
    }
    for (;;) {
      SkipSpace();
      if (*p_ != '"') return Err("expected object key");
      std::string key;
      ITG_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (*p_ != ':') return Err("expected ':'");
      ++p_;
      Json value;
      ITG_RETURN_IF_ERROR(ParseValue(&value));
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return Status::OK();
      }
      return Err("expected ',' or '}'");
    }
  }

  Status ParseArray(Json* out) {
    out->kind = Json::Kind::kArray;
    ++p_;  // '['
    SkipSpace();
    if (*p_ == ']') {
      ++p_;
      return Status::OK();
    }
    for (;;) {
      Json value;
      ITG_RETURN_IF_ERROR(ParseValue(&value));
      out->items.push_back(std::move(value));
      SkipSpace();
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return Status::OK();
      }
      return Err("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++p_;  // opening quote
    out->clear();
    while (*p_ != '"') {
      if (*p_ == '\0') return Err("unterminated string");
      if (*p_ == '\\') {
        ++p_;
        switch (*p_) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              ++p_;
              const char c = *p_;
              code <<= 4;
              if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
              else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
              else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
              else return Err("bad \\u escape");
            }
            // Protocol strings are ASCII identifiers; encode BMP code
            // points as UTF-8 without surrogate-pair handling.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Err("bad escape");
        }
        ++p_;
      } else {
        out->push_back(*p_);
        ++p_;
      }
    }
    ++p_;  // closing quote
    return Status::OK();
  }

  Status ParseNumber(Json* out) {
    const char* start = p_;
    if (*p_ == '-') {
      ++p_;
      if (*p_ == 'I') {
        if (!Consume("Infinity")) return Err("bad literal");
        out->kind = Json::Kind::kDouble;
        out->d = -std::numeric_limits<double>::infinity();
        return Status::OK();
      }
    }
    bool is_double = false;
    while (std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    if (*p_ == '.') {
      is_double = true;
      ++p_;
      while (std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (*p_ == 'e' || *p_ == 'E') {
      is_double = true;
      ++p_;
      if (*p_ == '+' || *p_ == '-') ++p_;
      while (std::isdigit(static_cast<unsigned char>(*p_))) ++p_;
    }
    if (p_ == start || (p_ == start + 1 && *start == '-')) {
      return Err("bad number");
    }
    const std::string text(start, p_);
    if (is_double) {
      out->kind = Json::Kind::kDouble;
      out->d = std::strtod(text.c_str(), nullptr);
    } else {
      out->kind = Json::Kind::kInt;
      out->i = std::strtoll(text.c_str(), nullptr, 10);
    }
    return Status::OK();
  }

  const char* p_;
  int depth_ = 0;
};

// Field accessors tolerant of absent members.
std::string GetString(const Json& obj, const char* key) {
  const Json* v = obj.Find(key);
  return v != nullptr && v->kind == Json::Kind::kString ? v->s : std::string();
}

int64_t GetInt(const Json& obj, const char* key, int64_t def = 0) {
  const Json* v = obj.Find(key);
  return v != nullptr && v->is_num() ? v->AsInt() : def;
}

double GetDouble(const Json& obj, const char* key, double def = 0) {
  const Json* v = obj.Find(key);
  return v != nullptr && v->is_num() ? v->AsDouble() : def;
}

bool GetBool(const Json& obj, const char* key, bool def = false) {
  const Json* v = obj.Find(key);
  return v != nullptr && v->kind == Json::Kind::kBool ? v->b : def;
}

// Digests travel as decimal strings (uint64 does not survive a
// double-typed number path); accept a plain number too.
uint64_t GetUint64String(const Json& obj, const char* key) {
  const Json* v = obj.Find(key);
  if (v == nullptr) return 0;
  if (v->kind == Json::Kind::kString) {
    return std::strtoull(v->s.c_str(), nullptr, 10);
  }
  if (v->is_num()) return static_cast<uint64_t>(v->AsInt());
  return 0;
}

Status ParseEdgeList(const Json& obj, const char* key,
                     std::vector<Edge>* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr) return Status::OK();
  if (v->kind != Json::Kind::kArray) {
    return Status::InvalidArgument(std::string(key) + " must be an array");
  }
  out->reserve(v->items.size());
  for (const Json& pair : v->items) {
    if (pair.kind != Json::Kind::kArray || pair.items.size() != 2 ||
        !pair.items[0].is_num() || !pair.items[1].is_num()) {
      return Status::InvalidArgument(std::string(key) +
                                     " entries must be [src, dst]");
    }
    out->push_back(Edge{pair.items[0].AsInt(), pair.items[1].AsInt()});
  }
  return Status::OK();
}

void AppendEdgeList(const std::vector<Edge>& edges, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i != 0) out->push_back(',');
    out->push_back('[');
    out->append(std::to_string(edges[i].src));
    out->push_back(',');
    out->append(std::to_string(edges[i].dst));
    out->push_back(']');
  }
  out->push_back(']');
}

}  // namespace

StatusOr<Json> Json::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

const Json* Json::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const char* RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kRegister:
      return "register";
    case RequestOp::kSubscribe:
      return "subscribe";
    case RequestOp::kUnsubscribe:
      return "unsubscribe";
    case RequestOp::kDeregister:
      return "deregister";
    case RequestOp::kIngest:
      return "ingest";
    case RequestOp::kStatus:
      return "status";
    case RequestOp::kShutdown:
      return "shutdown";
  }
  return "?";
}

StatusOr<Request> ParseRequest(const std::string& line) {
  ITG_ASSIGN_OR_RETURN(Json doc, Json::Parse(line));
  if (doc.kind != Json::Kind::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const std::string op = GetString(doc, "op");
  Request req;
  if (op == "register") {
    req.op = RequestOp::kRegister;
  } else if (op == "subscribe") {
    req.op = RequestOp::kSubscribe;
  } else if (op == "unsubscribe") {
    req.op = RequestOp::kUnsubscribe;
  } else if (op == "deregister") {
    req.op = RequestOp::kDeregister;
  } else if (op == "ingest") {
    req.op = RequestOp::kIngest;
  } else if (op == "status") {
    req.op = RequestOp::kStatus;
  } else if (op == "shutdown") {
    req.op = RequestOp::kShutdown;
  } else {
    return Status::InvalidArgument("unknown op '" + op + "'");
  }
  req.query = GetString(doc, "query");
  switch (req.op) {
    case RequestOp::kRegister:
      req.program = GetString(doc, "program");
      req.source = GetString(doc, "source");
      req.supersteps = static_cast<int>(GetInt(doc, "supersteps"));
      req.symmetric = GetBool(doc, "symmetric");
      req.subscribe = GetBool(doc, "subscribe");
      req.snapshot = GetBool(doc, "snapshot");
      req.budget_bytes = GetUint64String(doc, "budget_bytes");
      if (req.query.empty()) {
        return Status::InvalidArgument("register requires \"query\"");
      }
      if (req.program.empty() && req.source.empty()) {
        return Status::InvalidArgument(
            "register requires \"program\" or \"source\"");
      }
      break;
    case RequestOp::kSubscribe:
    case RequestOp::kUnsubscribe:
    case RequestOp::kDeregister:
      if (req.query.empty()) {
        return Status::InvalidArgument(std::string(RequestOpName(req.op)) +
                                       " requires \"query\"");
      }
      break;
    case RequestOp::kIngest:
      ITG_RETURN_IF_ERROR(ParseEdgeList(doc, "inserts", &req.inserts));
      ITG_RETURN_IF_ERROR(ParseEdgeList(doc, "deletes", &req.deletes));
      if (req.inserts.empty() && req.deletes.empty()) {
        return Status::InvalidArgument(
            "ingest requires \"inserts\" and/or \"deletes\"");
      }
      break;
    case RequestOp::kStatus:
    case RequestOp::kShutdown:
      break;
  }
  return req;
}

std::string SerializeRequest(const Request& req) {
  std::string out = "{\"op\":\"";
  out.append(RequestOpName(req.op));
  out.push_back('"');
  if (!req.query.empty()) {
    out.append(",\"query\":");
    AppendJsonString(req.query, &out);
  }
  if (req.op == RequestOp::kRegister) {
    if (!req.program.empty()) {
      out.append(",\"program\":");
      AppendJsonString(req.program, &out);
    }
    if (!req.source.empty()) {
      out.append(",\"source\":");
      AppendJsonString(req.source, &out);
    }
    if (req.supersteps != 0) {
      out.append(",\"supersteps\":").append(std::to_string(req.supersteps));
    }
    if (req.symmetric) out.append(",\"symmetric\":true");
    if (req.subscribe) out.append(",\"subscribe\":true");
    if (req.snapshot) out.append(",\"snapshot\":true");
    if (req.budget_bytes != 0) {
      out.append(",\"budget_bytes\":");
      AppendUint64AsString(req.budget_bytes, &out);
    }
  }
  if (req.op == RequestOp::kIngest) {
    out.append(",\"inserts\":");
    AppendEdgeList(req.inserts, &out);
    out.append(",\"deletes\":");
    AppendEdgeList(req.deletes, &out);
  }
  out.push_back('}');
  return out;
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

const char* ResponseTypeName(ResponseType type) {
  switch (type) {
    case ResponseType::kAck:
      return "ack";
    case ResponseType::kError:
      return "error";
    case ResponseType::kSnapshot:
      return "snapshot";
    case ResponseType::kDelta:
      return "delta";
    case ResponseType::kStatus:
      return "status";
  }
  return "?";
}

namespace {

Status ParseAttrColumns(const Json& doc, std::vector<AttrColumn>* out) {
  const Json* attrs = doc.Find("attrs");
  if (attrs == nullptr) return Status::OK();
  for (const Json& a : attrs->items) {
    AttrColumn col;
    col.name = GetString(a, "name");
    col.salt = static_cast<int>(GetInt(a, "salt"));
    col.width = static_cast<int>(GetInt(a, "width", 1));
    const Json* values = a.Find("values");
    if (values == nullptr || values->kind != Json::Kind::kArray) {
      return Status::InvalidArgument("snapshot attr missing values");
    }
    col.values.reserve(values->items.size());
    for (const Json& v : values->items) col.values.push_back(v.AsDouble());
    out->push_back(std::move(col));
  }
  return Status::OK();
}

Status ParseAttrCells(const Json& doc, std::vector<AttrCells>* out) {
  const Json* changes = doc.Find("changes");
  if (changes == nullptr) return Status::OK();
  for (const Json& a : changes->items) {
    AttrCells cells;
    cells.name = GetString(a, "name");
    cells.salt = static_cast<int>(GetInt(a, "salt"));
    cells.width = static_cast<int>(GetInt(a, "width", 1));
    const Json* vertices = a.Find("vertices");
    const Json* values = a.Find("values");
    if (vertices == nullptr || values == nullptr) {
      return Status::InvalidArgument("delta change missing vertices/values");
    }
    for (const Json& v : vertices->items) cells.vertices.push_back(v.AsInt());
    for (const Json& v : values->items) cells.values.push_back(v.AsDouble());
    if (cells.values.size() !=
        cells.vertices.size() * static_cast<size_t>(cells.width)) {
      return Status::InvalidArgument("delta change values/vertices mismatch");
    }
    out->push_back(std::move(cells));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Response> ParseResponse(const std::string& line) {
  ITG_ASSIGN_OR_RETURN(Json doc, Json::Parse(line));
  if (doc.kind != Json::Kind::kObject) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  const std::string type = GetString(doc, "type");
  Response resp;
  resp.op = GetString(doc, "op");
  resp.query = GetString(doc, "query");
  resp.timestamp = static_cast<Timestamp>(GetInt(doc, "timestamp"));
  resp.digest = GetUint64String(doc, "digest");
  resp.queue_depth = static_cast<uint64_t>(GetInt(doc, "queue_depth"));
  resp.trace_id = GetUint64String(doc, "trace_id");
  if (type == "ack") {
    resp.type = ResponseType::kAck;
  } else if (type == "error") {
    resp.type = ResponseType::kError;
    resp.code = GetString(doc, "code");
    resp.message = GetString(doc, "message");
  } else if (type == "snapshot") {
    resp.type = ResponseType::kSnapshot;
    resp.num_vertices = GetInt(doc, "num_vertices");
    ITG_RETURN_IF_ERROR(ParseAttrColumns(doc, &resp.attrs));
  } else if (type == "delta") {
    resp.type = ResponseType::kDelta;
    resp.seq = static_cast<uint64_t>(GetInt(doc, "seq"));
    resp.batch_ops = static_cast<uint64_t>(GetInt(doc, "batch_ops"));
    resp.supersteps = static_cast<int>(GetInt(doc, "supersteps"));
    resp.seconds = GetDouble(doc, "seconds");
    resp.latency_us = static_cast<uint64_t>(GetInt(doc, "latency_us"));
    ITG_RETURN_IF_ERROR(ParseAttrCells(doc, &resp.changes));
  } else if (type == "status") {
    resp.type = ResponseType::kStatus;
    resp.backpressure_stalls =
        static_cast<uint64_t>(GetInt(doc, "backpressure_stalls"));
    resp.ingest_batches = static_cast<uint64_t>(GetInt(doc, "ingest_batches"));
    resp.max_queries = static_cast<uint64_t>(GetInt(doc, "max_queries"));
    resp.draining = GetBool(doc, "draining");
    const Json* queries = doc.Find("queries");
    if (queries != nullptr) {
      for (const Json& q : queries->items) {
        QueryRow row;
        row.query = GetString(q, "query");
        row.timestamp = static_cast<Timestamp>(GetInt(q, "timestamp"));
        row.digest = GetUint64String(q, "digest");
        row.runs = static_cast<uint64_t>(GetInt(q, "runs"));
        row.supersteps = static_cast<int>(GetInt(q, "supersteps"));
        row.last_seconds = GetDouble(q, "last_seconds");
        row.budget_bytes = GetUint64String(q, "budget_bytes");
        row.budget_used_bytes = GetUint64String(q, "budget_used_bytes");
        row.subscribers = static_cast<int>(GetInt(q, "subscribers"));
        row.lag_batches = static_cast<uint64_t>(GetInt(q, "lag_batches"));
        row.lag_us = static_cast<uint64_t>(GetInt(q, "lag_us"));
        resp.queries.push_back(std::move(row));
      }
    }
  } else {
    return Status::InvalidArgument("unknown response type '" + type + "'");
  }
  return resp;
}

std::string SerializeResponse(const Response& resp) {
  std::string out = "{\"type\":\"";
  out.append(ResponseTypeName(resp.type));
  out.push_back('"');
  if (!resp.op.empty()) {
    out.append(",\"op\":");
    AppendJsonString(resp.op, &out);
  }
  if (!resp.query.empty()) {
    out.append(",\"query\":");
    AppendJsonString(resp.query, &out);
  }
  switch (resp.type) {
    case ResponseType::kAck:
      out.append(",\"timestamp\":").append(std::to_string(resp.timestamp));
      out.append(",\"digest\":");
      AppendUint64AsString(resp.digest, &out);
      out.append(",\"queue_depth\":").append(std::to_string(resp.queue_depth));
      if (resp.trace_id != 0) {
        out.append(",\"trace_id\":");
        AppendUint64AsString(resp.trace_id, &out);
      }
      break;
    case ResponseType::kError:
      out.append(",\"code\":");
      AppendJsonString(resp.code, &out);
      out.append(",\"message\":");
      AppendJsonString(resp.message, &out);
      break;
    case ResponseType::kSnapshot: {
      out.append(",\"timestamp\":").append(std::to_string(resp.timestamp));
      out.append(",\"digest\":");
      AppendUint64AsString(resp.digest, &out);
      out.append(",\"num_vertices\":")
          .append(std::to_string(resp.num_vertices));
      out.append(",\"attrs\":[");
      for (size_t i = 0; i < resp.attrs.size(); ++i) {
        const AttrColumn& col = resp.attrs[i];
        if (i != 0) out.push_back(',');
        out.append("{\"name\":");
        AppendJsonString(col.name, &out);
        out.append(",\"salt\":").append(std::to_string(col.salt));
        out.append(",\"width\":").append(std::to_string(col.width));
        out.append(",\"values\":[");
        for (size_t j = 0; j < col.values.size(); ++j) {
          if (j != 0) out.push_back(',');
          AppendJsonDouble(col.values[j], &out);
        }
        out.append("]}");
      }
      out.push_back(']');
      break;
    }
    case ResponseType::kDelta: {
      out.append(",\"seq\":").append(std::to_string(resp.seq));
      out.append(",\"timestamp\":").append(std::to_string(resp.timestamp));
      out.append(",\"batch_ops\":").append(std::to_string(resp.batch_ops));
      out.append(",\"supersteps\":").append(std::to_string(resp.supersteps));
      out.append(",\"seconds\":");
      AppendJsonDouble(resp.seconds, &out);
      out.append(",\"latency_us\":").append(std::to_string(resp.latency_us));
      if (resp.trace_id != 0) {
        out.append(",\"trace_id\":");
        AppendUint64AsString(resp.trace_id, &out);
      }
      out.append(",\"digest\":");
      AppendUint64AsString(resp.digest, &out);
      out.append(",\"changes\":[");
      for (size_t i = 0; i < resp.changes.size(); ++i) {
        const AttrCells& cells = resp.changes[i];
        if (i != 0) out.push_back(',');
        out.append("{\"name\":");
        AppendJsonString(cells.name, &out);
        out.append(",\"salt\":").append(std::to_string(cells.salt));
        out.append(",\"width\":").append(std::to_string(cells.width));
        out.append(",\"vertices\":[");
        for (size_t j = 0; j < cells.vertices.size(); ++j) {
          if (j != 0) out.push_back(',');
          out.append(std::to_string(cells.vertices[j]));
        }
        out.append("],\"values\":[");
        for (size_t j = 0; j < cells.values.size(); ++j) {
          if (j != 0) out.push_back(',');
          AppendJsonDouble(cells.values[j], &out);
        }
        out.append("]}");
      }
      out.push_back(']');
      break;
    }
    case ResponseType::kStatus: {
      out.append(",\"queries\":[");
      for (size_t i = 0; i < resp.queries.size(); ++i) {
        const QueryRow& row = resp.queries[i];
        if (i != 0) out.push_back(',');
        out.append("{\"query\":");
        AppendJsonString(row.query, &out);
        out.append(",\"timestamp\":").append(std::to_string(row.timestamp));
        out.append(",\"digest\":");
        AppendUint64AsString(row.digest, &out);
        out.append(",\"runs\":").append(std::to_string(row.runs));
        out.append(",\"supersteps\":").append(std::to_string(row.supersteps));
        out.append(",\"last_seconds\":");
        AppendJsonDouble(row.last_seconds, &out);
        out.append(",\"budget_bytes\":");
        AppendUint64AsString(row.budget_bytes, &out);
        out.append(",\"budget_used_bytes\":");
        AppendUint64AsString(row.budget_used_bytes, &out);
        out.append(",\"subscribers\":")
            .append(std::to_string(row.subscribers));
        out.append(",\"lag_batches\":")
            .append(std::to_string(row.lag_batches));
        out.append(",\"lag_us\":").append(std::to_string(row.lag_us));
        out.push_back('}');
      }
      out.push_back(']');
      out.append(",\"queue_depth\":").append(std::to_string(resp.queue_depth));
      out.append(",\"backpressure_stalls\":")
          .append(std::to_string(resp.backpressure_stalls));
      out.append(",\"ingest_batches\":")
          .append(std::to_string(resp.ingest_batches));
      out.append(",\"max_queries\":").append(std::to_string(resp.max_queries));
      out.append(",\"draining\":").append(resp.draining ? "true" : "false");
      break;
    }
  }
  out.push_back('}');
  return out;
}

Response MakeError(RequestOp op, const std::string& query,
                   const std::string& code, const std::string& message) {
  Response resp;
  resp.type = ResponseType::kError;
  resp.op = RequestOpName(op);
  resp.query = query;
  resp.code = code;
  resp.message = message;
  return resp;
}

Response MakeAck(RequestOp op, const std::string& query) {
  Response resp;
  resp.type = ResponseType::kAck;
  resp.op = RequestOpName(op);
  resp.query = query;
  return resp;
}

}  // namespace serve
}  // namespace itg
