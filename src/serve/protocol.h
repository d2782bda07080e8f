// Wire protocol of the always-on incremental query service (§1, §2.2 of
// the paper: "incremental graph analytics ... continuously maintained as
// the graph evolves"). The serving daemon promotes the batch engine's
// Q(G ∪ ΔG) = Q(G) ∪ ΔQ contract to a client-visible stream: clients
// register L_NGA queries as standing incremental views and receive one
// ΔQ record per ingested Δ-batch.
//
// Transport is newline-delimited JSON over a loopback TCP socket — the
// same dependency-free plumbing as the telemetry plane
// (common/socket_listener.h). One JSON object per line, requests keyed
// by "op", responses keyed by "type". 64-bit state digests travel as
// decimal *strings* so they survive parsers that read numbers as
// doubles; attribute values serialize with round-trip precision
// (%.17g, Infinity/NaN as bare tokens) so a subscriber can mirror the
// view state and recompute digests bit-exactly (common/digest.h).
//
// This header is transport-free: message structs plus parse/serialize
// functions, so the protocol unit tests (tests/serve_test.cc) round-trip
// every message without a socket.
#ifndef ITG_SERVE_PROTOCOL_H_
#define ITG_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace itg {
namespace serve {

// ---------------------------------------------------------------------------
// Minimal JSON document model
// ---------------------------------------------------------------------------

/// A parsed JSON value. Integers without fraction/exponent are kept as
/// int64 (vertex ids must stay exact); everything else numeric is a
/// double. The non-standard tokens Infinity/-Infinity/NaN are accepted
/// (and emitted by the serializer) because analytic attributes — BFS
/// depths of unreached vertices, for one — legitimately hold them.
struct Json {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool b = false;
  int64_t i = 0;
  double d = 0.0;
  std::string s;
  std::vector<Json> items;                            // kArray
  std::vector<std::pair<std::string, Json>> members;  // kObject

  /// Parses exactly one JSON value (trailing whitespace allowed).
  static StatusOr<Json> Parse(const std::string& text);

  /// Object member lookup; null when absent or not an object.
  const Json* Find(const std::string& key) const;

  bool is_num() const { return kind == Kind::kInt || kind == Kind::kDouble; }
  double AsDouble() const { return kind == Kind::kInt ? static_cast<double>(i) : d; }
  int64_t AsInt() const { return kind == Kind::kDouble ? static_cast<int64_t>(d) : i; }
};

/// Appends a double with round-trip precision; non-finite values become
/// the tokens Infinity / -Infinity / NaN (accepted by Json::Parse and by
/// Python's json module).
void AppendJsonDouble(double v, std::string* out);

// ---------------------------------------------------------------------------
// Requests (client -> server), one JSON object per line, keyed by "op"
// ---------------------------------------------------------------------------

enum class RequestOp {
  kRegister,     // install a standing query (optionally subscribe+snapshot)
  kSubscribe,    // attach this connection to an existing query's ΔQ stream
  kUnsubscribe,  // detach this connection from a query's stream
  kDeregister,   // drop a standing query entirely
  kIngest,       // apply one Δ-batch to the graph of record
  kStatus,       // per-query rows + service counters
  kShutdown,     // drain and stop the daemon
};

const char* RequestOpName(RequestOp op);

struct Request {
  RequestOp op = RequestOp::kStatus;
  /// Query name (register/subscribe/unsubscribe/deregister).
  std::string query;

  // -- register --
  /// Builtin program name (pr|qpr|lp|wcc|bfs[:root]|tc|lcc), or empty
  /// when `source` carries raw L_NGA text.
  std::string program;
  std::string source;
  /// Superstep override; 0 keeps the builtin's default (-1 = converge).
  int supersteps = 0;
  /// Mirror every ingested edge (u,v) as (v,u) for this view.
  bool symmetric = false;
  /// Also subscribe the registering connection to the ΔQ stream.
  bool subscribe = false;
  /// Send a full state snapshot message right after registration.
  bool snapshot = false;
  /// Per-query memory-budget slice in bytes; 0 = service default.
  uint64_t budget_bytes = 0;

  // -- ingest --
  std::vector<Edge> inserts;
  std::vector<Edge> deletes;
};

StatusOr<Request> ParseRequest(const std::string& line);
std::string SerializeRequest(const Request& req);

// ---------------------------------------------------------------------------
// Responses (server -> client), keyed by "type"
// ---------------------------------------------------------------------------

enum class ResponseType {
  kAck,       // request succeeded
  kError,     // request failed: structured code + human message
  kSnapshot,  // full audited-attribute state of one view
  kDelta,     // one ΔQ record: changed cells of one view after a batch
  kStatus,    // service + per-query health rows
};

const char* ResponseTypeName(ResponseType type);

/// Structured error codes (`Response::code`).
///   admission_full   max standing queries reached
///   budget_exceeded  requested view does not fit its memory-budget slice
///   already_exists   query name is taken
///   unknown_query    subscribe/unsubscribe/deregister of a missing name
///   compile_error    L_NGA compilation failed
///   out_of_range     ingest references a vertex >= num_vertices
///   invalid_mutation ingest inserts a present/self-loop edge or
///                    deletes an absent one
///   parse_error      malformed request line
///   shutting_down    daemon is draining; no new work accepted
///   internal         engine/storage failure (message has the status)

/// One dense audited attribute column (snapshot message).
struct AttrColumn {
  std::string name;
  /// Digest salt: the program attribute index fed to
  /// CombineColumnDigest — lets a subscriber recompute the combined
  /// state digest from mirrored columns.
  int salt = 0;
  int width = 1;
  /// width doubles per vertex, row-major, num_vertices rows.
  std::vector<double> values;
};

/// Changed cells of one attribute (delta message).
struct AttrCells {
  std::string name;
  int salt = 0;
  int width = 1;
  std::vector<VertexId> vertices;
  /// width doubles per entry of `vertices`, row-major (after-images).
  std::vector<double> values;
};

/// One per-query row of the status message — the same rows /statusz
/// renders in its "serving" section.
struct QueryRow {
  std::string query;
  Timestamp timestamp = 0;  // view-local snapshot number
  uint64_t digest = 0;
  uint64_t runs = 0;
  int supersteps = 0;       // of the last run
  double last_seconds = 0;
  uint64_t budget_bytes = 0;
  uint64_t budget_used_bytes = 0;
  int subscribers = 0;
  /// Staleness vs the graph of record: batches ingested but not yet
  /// applied to this view, and the ingest age (µs) of the newest batch
  /// the view has applied relative to the newest ingested one (0 when
  /// the view is caught up). Mirrors serve.view_lag_{batches,us}.<name>.
  uint64_t lag_batches = 0;
  uint64_t lag_us = 0;
};

struct Response {
  ResponseType type = ResponseType::kAck;

  /// RequestOpName of the acked/failed request (ack, error).
  std::string op;
  std::string query;
  std::string code;     // error
  std::string message;  // error

  Timestamp timestamp = 0;   // ack(register/ingest), snapshot, delta
  uint64_t digest = 0;       // ack(register), snapshot, delta
  uint64_t seq = 0;          // delta: ingest sequence number
  uint64_t batch_ops = 0;    // delta: ops applied to this view
  int supersteps = 0;        // delta: supersteps of the incremental run
  double seconds = 0;        // delta: incremental run seconds
  uint64_t latency_us = 0;   // delta: ingest entry -> message build latency
  uint64_t queue_depth = 0;  // ack(ingest), status: queued + in-flight
  /// Pipeline trace id of the Δ-batch (ack(ingest), delta). Assigned at
  /// Service::Ingest and carried through queue/apply/view-run/flush, so a
  /// client can correlate its ingest ack with every streamed ΔQ record
  /// and with the serve.* flow events of the Chrome trace. Travels as a
  /// decimal string (like digests); 0 = no trace id (non-ingest acks).
  uint64_t trace_id = 0;

  VertexId num_vertices = 0;       // snapshot
  std::vector<AttrColumn> attrs;   // snapshot
  std::vector<AttrCells> changes;  // delta

  std::vector<QueryRow> queries;     // status
  uint64_t backpressure_stalls = 0;  // status
  uint64_t ingest_batches = 0;       // status
  uint64_t max_queries = 0;          // status
  bool draining = false;             // status
};

StatusOr<Response> ParseResponse(const std::string& line);
std::string SerializeResponse(const Response& resp);

/// Convenience constructors for the two commonest shapes.
Response MakeError(RequestOp op, const std::string& query,
                   const std::string& code, const std::string& message);
Response MakeAck(RequestOp op, const std::string& query);

}  // namespace serve
}  // namespace itg

#endif  // ITG_SERVE_PROTOCOL_H_
