//! The line-delimited JSON protocol spoken by `qpilotd` (over stdio and
//! TCP) and `qpilot-cli`.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! -> {"op":"ping"}
//! <- {"ok":true,"op":"pong"}
//!
//! -> {"op":"compile","circuit":{"num_qubits":4,"gates":[["cz",0,1]]}}
//! -> {"op":"compile","qasm":"OPENQASM 2.0;\nqreg q[4];\ncz q[0], q[1];"}
//! -> {"op":"compile","router":"qsim","strings":["ZZII","IXXI"],"theta":0.5}
//! -> {"op":"compile","router":"qaoa","qubits":4,"edges":[[0,1],[2,3]],
//!     "gamma":0.7,"beta":0.3}
//! <- {"ok":true,"op":"compile","router":"generic","fingerprint":"…32 hex…",
//!     "cache":"miss","compile_ms":0.42,"stats":{…},
//!     "schedule":{…qpilot.schedule/v1…}}
//!
//! -> {"op":"stats"}
//! <- {"ok":true,"op":"stats","requests":2,"hits":1,"coalesced":0,…}
//!
//! -> {"op":"store-stats"}
//! <- {"ok":true,"op":"store-stats","configured":true,"loaded":3,
//!     "discarded":1,"persisted":2,"removed":0,"entries":5,…,
//!     "recover_ms":4.2}
//!
//! -> {"op":"metrics"}
//! <- {"ok":true,"op":"metrics","request_id":"r-1","content_type":
//!     "text/plain; version=0.0.4","exposition":"# HELP …"}
//!
//! -> {"op":"shutdown"}
//! <- {"ok":true,"op":"shutdown"}
//! ```
//!
//! Every request may carry a `"request_id"` string (≤ 128 bytes); the
//! daemon assigns `r-<hex>` when absent. Every reply — success, error,
//! shed or deadline miss — echoes it back as `"request_id"`, and it
//! propagates unchanged through coalescing. Compile replies and all
//! error replies additionally carry `"path"`: the serving path `hit` |
//! `miss` | `coalesced` for successes, `shed` for overload, `error`
//! otherwise.
//!
//! The `"router"` tag selects the workload shape (default `generic`;
//! `auto` infers the family from the payload's marker fields,
//! order-independently — `circuit`/`qasm` → generic, `strings` → qsim,
//! `edges`/`qubits` → qaoa, `distance` → qec — and rejects requests
//! whose markers point at more than one family, naming the conflicting
//! fields, the way `qpilot_core::compile` picks the router from the
//! workload family):
//!
//! * `generic` — `"circuit"` object or `"qasm"` string (exactly one);
//!   option `"stage_cap"`.
//! * `qsim` — `"strings"` (array of Pauli strings) with a shared
//!   `"theta"` or a parallel `"angles"` array (exactly one); option
//!   `"max_copies"`.
//! * `qaoa` — `"qubits"` and `"edges"` (array of `[u, v]` pairs), with
//!   `"gamma"`/`"gammas"` and optionally `"beta"`/`"betas"` (absent
//!   betas route bare cost layers); options `"anchors"`,
//!   `"column_extension"`.
//! * `qec` — `"distance"` (surface-code distance ≥ 2) with optional
//!   `"rounds"` (default 1) and `"theta"` (stabilizer-phase angle,
//!   default π/4); option `"parallel_waves"` (boolean).
//!
//! Shared `compile` options: `"cols"` (SLM columns; default square),
//! `"schedule":false` to omit the schedule body (fingerprint + stats
//! only — useful for warming), `"deadline_ms"` (client deadline; the
//! daemon's `--max-compile-ms` caps it). Every size a request names is
//! capped by [`MAX_WIRE_QUBITS`]. The `"cache"` response field is
//! `"miss"`, `"hit"`, or `"coalesced"` (attached to a concurrent
//! identical compile). Errors come back as `{"ok":false,"error":"…"}`
//! and never tear down the connection; the `"retry"` flag marks
//! transient conditions (`"retry_after_ms"` hints the backoff for
//! overload), and `"deadline":true` marks a missed deadline.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qpilot_circuit::{Circuit, Gate, PauliString};
use qpilot_core::generic::GenericRouterOptions;
use qpilot_core::json::{self, json_str, Head, Item, JsonError, Kind, Reader};
use qpilot_core::obs;
use qpilot_core::qsim::QsimRouterOptions;
use qpilot_core::wire::{read_gate, write_gate, FloatTable, WireError};
use qpilot_core::{QaoaOptions, QecOptions, RouterOptions, RouterTag, ScheduleStats, Workload};

use crate::events::{self, Field};
use crate::pool::{
    CompileRequest, CompileResponse, Service, ServiceError, ServiceStats, StoreStats,
};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Compile a circuit (with response-shaping flag).
    Compile {
        /// The compilation job.
        request: CompileRequest,
        /// Include the serialised schedule in the response.
        include_schedule: bool,
    },
    /// Service statistics.
    Stats,
    /// Persistent-store statistics (recovery report + counters).
    StoreStats,
    /// The Prometheus text exposition, wrapped in a JSON line.
    Metrics,
    /// Ask the daemon to exit cleanly.
    Shutdown,
}

/// Upper bound on a client-supplied `request_id`.
pub const MAX_REQUEST_ID_BYTES: usize = 128;

/// Upper bound on every size a compile request names: `num_qubits`
/// (and a QASM `qreg`), qaoa `qubits` and `anchors`, `cols`, and for
/// qec `distance²` and `distance² × rounds`. A few bytes naming a larger
/// size would have the fingerprint or a router allocate gigabytes.
pub const MAX_WIRE_QUBITS: u64 = 65_536;

/// Rejects a size over [`MAX_WIRE_QUBITS`], naming the field that
/// implies it.
fn within_wire_limit(field: &str, size: u64) -> Result<(), String> {
    if size > MAX_WIRE_QUBITS {
        return Err(format!(
            "`{field}` implies a size of {size}, over the limit of {MAX_WIRE_QUBITS}"
        ));
    }
    Ok(())
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh daemon-assigned request id (`r-<hex>`, process-unique).
pub fn next_request_id() -> String {
    format!("r-{:x}", NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
}

/// The top-level keys the request decoder reads as items; `circuit` is
/// decoded on its own ([`Fields::circuit`]).
const FIELDS: [&str; 23] = [
    "op",
    "request_id",
    "router",
    "qasm",
    "strings",
    "theta",
    "angles",
    "max_copies",
    "qubits",
    "edges",
    "gamma",
    "gammas",
    "beta",
    "betas",
    "anchors",
    "column_extension",
    "distance",
    "rounds",
    "parallel_waves",
    "stage_cap",
    "cols",
    "schedule",
    "deadline_ms",
];

/// A request line's top-level fields, collected by the one pass that
/// validates the line: the first occurrence of each key in [`FIELDS`],
/// compared after escape decoding and read shallowly (a container is
/// kept as its text for the decoder to walk once more), and the first
/// `circuit`, decoded on the line's own reader as the pass meets it.
/// Other keys are validated and dropped, so the table has a fixed size
/// whatever the line holds.
pub(crate) struct Fields<'a> {
    items: [Option<Item<'a>>; FIELDS.len()],
    /// The first `circuit`: the decoded circuit, or the first fault
    /// [`read_circuit`] found in it.
    circuit: Option<Result<Circuit, String>>,
}

impl<'a> Fields<'a> {
    /// Validates `line` as one JSON document and collects its fields; a
    /// document that is not an object has none. A JSON error anywhere in
    /// the line is the error, even after a fault in the circuit.
    pub(crate) fn read(line: &'a str) -> Result<Fields<'a>, JsonError> {
        let mut fields = Fields {
            items: Default::default(),
            circuit: None,
        };
        let mut r = Reader::new(line);
        if r.peek()? == Kind::Obj {
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                match FIELDS.iter().position(|k| key == *k) {
                    Some(i) if fields.items[i].is_none() => fields.items[i] = Some(r.item()?),
                    None if key == "circuit" && fields.circuit.is_none() => {
                        fields.circuit = Some(read_circuit(&mut r)?);
                    }
                    _ => {
                        r.skip()?;
                    }
                }
            }
        } else {
            r.skip()?;
        }
        r.finish()?;
        Ok(fields)
    }

    /// The field `key`, one of [`FIELDS`]. A key whose value is `null`
    /// is present, as `Value::get` sees it.
    pub(crate) fn get(&self, key: &str) -> Option<&Item<'a>> {
        let i = FIELDS.iter().position(|k| *k == key);
        debug_assert!(i.is_some(), "`{key}` is not one of FIELDS");
        self.items[i?].as_ref()
    }

    /// Whether the line has the field `key`, one of [`FIELDS`] or
    /// `circuit`, whatever its value.
    fn has(&self, key: &str) -> bool {
        match key {
            "circuit" => self.circuit.is_some(),
            _ => self.get(key).is_some(),
        }
    }
}

/// Extracts and validates an optional client-supplied `request_id`.
fn request_id_from(fields: &Fields<'_>) -> Result<Option<String>, String> {
    match fields.get("request_id") {
        None | Some(Item::Null) => Ok(None),
        Some(v) => {
            let s = v.as_str().ok_or("`request_id` must be a string")?;
            if s.is_empty() || s.len() > MAX_REQUEST_ID_BYTES {
                return Err(format!(
                    "`request_id` must be 1..={MAX_REQUEST_ID_BYTES} bytes"
                ));
            }
            Ok(Some(s.to_string()))
        }
    }
}

/// Parses one request line.
///
/// One validating pass reads the line and decodes its `circuit` on the
/// way, so a line that is not JSON gets the JSON error first, wherever
/// it sits. The checks then run on the collected fields in a fixed
/// order: `request_id`, `op`, the router, foreign fields, the workload
/// (the circuit's own fault among them), `cols`, `schedule` and
/// `deadline_ms`. The small containers of the other routers are walked
/// once more from their text. No JSON tree is built.
///
/// # Errors
///
/// A human-readable message destined for an `{"ok":false}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = Fields::read(line).map_err(|e| e.to_string())?;
    let request_id = request_id_from(&fields)?;
    parse_request_doc(fields, request_id)
}

/// [`parse_request`] over a line's fields; `request_id` is attached to
/// compile requests so it survives coalescing.
fn parse_request_doc(mut doc: Fields<'_>, request_id: Option<String>) -> Result<Request, String> {
    let op = doc
        .get("op")
        .and_then(Item::as_str)
        .ok_or("request needs a string `op` field")?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "store-stats" => Ok(Request::StoreStats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "compile" => {
            let router = match doc.get("router") {
                None | Some(Item::Null) => RouterTag::Generic,
                Some(v) => match v.as_str().ok_or("`router` must be a string")? {
                    "auto" => sniff_router(&doc)?,
                    name => RouterTag::parse(name).ok_or_else(|| {
                        format!("unknown router `{name}` (auto|generic|qsim|qaoa|qec)")
                    })?,
                },
            };
            let (workload, options) = match router {
                RouterTag::Generic => generic_workload(&mut doc)?,
                RouterTag::Qsim => qsim_workload(&doc)?,
                RouterTag::Qaoa => qaoa_workload(&doc)?,
                RouterTag::Qec => qec_workload(&doc)?,
            };
            let cols = opt_positive(&doc, "cols")?;
            within_wire_limit("cols", cols.unwrap_or(0) as u64)?;
            let include_schedule = match doc.get("schedule") {
                None => true,
                Some(v) => v.as_bool().ok_or("`schedule` must be a boolean")?,
            };
            let deadline_ms = match doc.get("deadline_ms") {
                None | Some(Item::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or("`deadline_ms` must be a non-negative integer")?,
                ),
            };
            Ok(Request::Compile {
                request: CompileRequest {
                    workload,
                    options,
                    cols,
                    deadline_ms,
                    request_id,
                },
                include_schedule,
            })
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// The payload fields that mark a workload family for `router: "auto"`
/// inference. Two markers of the *same* family (`circuit` + `qasm`) are
/// left for the family parser to arbitrate; markers of *different*
/// families make the request ambiguous.
const FAMILY_MARKERS: [(&str, RouterTag); 6] = [
    ("circuit", RouterTag::Generic),
    ("qasm", RouterTag::Generic),
    ("strings", RouterTag::Qsim),
    ("edges", RouterTag::Qaoa),
    ("qubits", RouterTag::Qaoa),
    ("distance", RouterTag::Qec),
];

/// Infers the workload family from the payload's marker fields, the
/// wire form of the core API's family-picks-the-router rule. The scan is
/// order-independent: every marker is inspected, and a payload whose
/// markers point at more than one family is rejected with both
/// conflicting field names rather than silently compiling whichever
/// family a fixed priority happened to prefer. A payload with no
/// marker at all falls through to `generic`, whose parser reports the
/// missing circuit.
fn sniff_router(doc: &Fields<'_>) -> Result<RouterTag, String> {
    let mut inferred: Option<(RouterTag, &str)> = None;
    for (key, tag) in FAMILY_MARKERS {
        if !doc.has(key) {
            continue;
        }
        match inferred {
            None => inferred = Some((tag, key)),
            Some((first_tag, first_key)) if first_tag != tag => {
                return Err(format!(
                    "ambiguous `auto` compile: `{first_key}` implies the `{first_tag}` \
                     router but `{key}` implies `{tag}`"
                ));
            }
            Some(_) => {}
        }
    }
    Ok(inferred.map_or(RouterTag::Generic, |(tag, _)| tag))
}

/// Parses an optional positive-integer field.
fn opt_positive(doc: &Fields<'_>, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None | Some(Item::Null) => Ok(None),
        Some(v) => Ok(Some(
            v.as_usize()
                .filter(|&c| c > 0)
                .ok_or(format!("`{key}` must be a positive integer"))?,
        )),
    }
}

/// Rejects fields belonging to a different router's workload shape —
/// a typo'd request should fail loudly, not silently compile something
/// other than what the client meant.
fn reject_foreign_fields(
    doc: &Fields<'_>,
    router: RouterTag,
    foreign: &[&str],
) -> Result<(), String> {
    for key in foreign {
        if doc.has(key) {
            return Err(format!("`{key}` is not a `{router}` router field"));
        }
    }
    Ok(())
}

/// Decodes the elements of an array field: each is read with `read` and
/// converted with `convert`, up to the first error. The field's text was
/// validated when the line was read, so `read` cannot fail on it.
fn elements<'a, E, T>(
    mut array: Reader<'a>,
    read: fn(&mut Reader<'a>) -> Result<E, JsonError>,
    mut convert: impl FnMut(E) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let json = |e: JsonError| e.to_string();
    let mut out = Vec::new();
    array.begin_array().map_err(json)?;
    while array.next_element().map_err(json)? {
        out.push(convert(read(&mut array).map_err(json)?)?);
    }
    Ok(out)
}

type ParsedWorkload = (Workload, Option<RouterOptions>);

fn generic_workload(doc: &mut Fields<'_>) -> Result<ParsedWorkload, String> {
    reject_foreign_fields(doc, RouterTag::Generic, &["strings", "edges", "gammas"])?;
    let options = opt_positive(doc, "stage_cap")?
        .map(|cap| GenericRouterOptions {
            stage_cap: Some(cap),
        })
        .map(RouterOptions::Generic);
    Ok((Workload::Generic(circuit_from_request(doc)?), options))
}

fn qsim_workload(doc: &Fields<'_>) -> Result<ParsedWorkload, String> {
    reject_foreign_fields(doc, RouterTag::Qsim, &["circuit", "qasm", "edges"])?;
    let strings = doc
        .get("strings")
        .and_then(Item::as_arr)
        .ok_or("qsim compile needs a `strings` array of Pauli strings")?;
    let parsed: Vec<PauliString> = elements(strings, Reader::item, |v| {
        let s = v.as_str().ok_or("`strings` entries must be strings")?;
        s.parse::<PauliString>().map_err(|e| e.to_string())
    })?;
    let angles: Vec<f64> = match (doc.get("theta"), doc.get("angles")) {
        (Some(_), Some(_)) => return Err("give either `theta` or `angles`, not both".into()),
        (Some(t), None) => {
            let theta = t.as_f64().ok_or("`theta` must be a number")?;
            vec![theta; parsed.len()]
        }
        (None, Some(a)) => {
            let arr = a.as_arr().ok_or("`angles` must be an array of numbers")?;
            let angles = elements(arr, Reader::item, |v| Ok(v.as_f64()))?;
            if angles.len() != parsed.len() {
                return Err(format!(
                    "`angles` ({}) must match `strings` ({})",
                    angles.len(),
                    parsed.len()
                ));
            }
            angles
                .into_iter()
                .map(|v| v.ok_or_else(|| "`angles` must be numbers".into()))
                .collect::<Result<_, String>>()?
        }
        (None, None) => return Err("qsim compile needs `theta` or `angles`".into()),
    };
    if angles.iter().any(|a| !a.is_finite()) {
        return Err("qsim angles must be finite".into());
    }
    let options = opt_positive(doc, "max_copies")?
        .map(|cap| QsimRouterOptions {
            max_copies: Some(cap),
        })
        .map(RouterOptions::Qsim);
    Ok((
        Workload::weighted_paulis(parsed.into_iter().zip(angles).collect()),
        options,
    ))
}

/// Parses an angle list given either a scalar field (`gamma`) or a
/// plural array field (`gammas`); exactly one may be present.
fn angle_list(doc: &Fields<'_>, scalar: &str, plural: &str) -> Result<Option<Vec<f64>>, String> {
    match (doc.get(scalar), doc.get(plural)) {
        (Some(_), Some(_)) => Err(format!("give either `{scalar}` or `{plural}`, not both")),
        (Some(v), None) => {
            let a = v.as_f64().ok_or(format!("`{scalar}` must be a number"))?;
            Ok(Some(vec![a]))
        }
        (None, Some(v)) => {
            let arr = v
                .as_arr()
                .ok_or(format!("`{plural}` must be an array of numbers"))?;
            let angles = elements(arr, Reader::item, |x| {
                x.as_f64()
                    .ok_or_else(|| format!("`{plural}` must be numbers"))
            })?;
            Ok(Some(angles))
        }
        (None, None) => Ok(None),
    }
}

fn qaoa_workload(doc: &Fields<'_>) -> Result<ParsedWorkload, String> {
    reject_foreign_fields(doc, RouterTag::Qaoa, &["circuit", "qasm", "strings"])?;
    let num_qubits = doc
        .get("qubits")
        .and_then(Item::as_u32)
        .filter(|&n| n > 0)
        .ok_or("qaoa compile needs a positive integer `qubits`")?;
    within_wire_limit("qubits", u64::from(num_qubits))?;
    let edges_arr = doc
        .get("edges")
        .and_then(Item::as_arr)
        .ok_or("qaoa compile needs an `edges` array of [u, v] pairs")?;
    let edges = elements(edges_arr, Reader::head::<2>, |e| match e {
        Head::Arr(2, [a, b]) => match (a.as_u32(), b.as_u32()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err("`edges` entries must be pairs of qubit indices".into()),
        },
        _ => Err("`edges` entries must be two-element arrays".into()),
    })?;
    let gammas =
        angle_list(doc, "gamma", "gammas")?.ok_or("qaoa compile needs `gamma` or `gammas`")?;
    let betas = angle_list(doc, "beta", "betas")?.unwrap_or_default();
    if gammas.iter().chain(&betas).any(|a| !a.is_finite()) {
        return Err("qaoa angles must be finite".into());
    }
    let column_extension = match doc.get("column_extension") {
        None | Some(Item::Null) => None,
        Some(v) => Some(v.as_bool().ok_or("`column_extension` must be a boolean")?),
    };
    let anchor_candidates = opt_positive(doc, "anchors")?;
    within_wire_limit("anchors", anchor_candidates.unwrap_or(0) as u64)?;
    let qaoa_options = QaoaOptions {
        anchor_candidates,
        column_extension,
    };
    let options =
        (qaoa_options != QaoaOptions::default()).then_some(RouterOptions::Qaoa(qaoa_options));
    Ok((
        Workload::qaoa_rounds(num_qubits, edges, gammas, betas),
        options,
    ))
}

/// The wire default for the qec stabilizer-phase angle when `"theta"`
/// is absent.
pub const QEC_DEFAULT_THETA: f64 = std::f64::consts::FRAC_PI_4;

fn qec_workload(doc: &Fields<'_>) -> Result<ParsedWorkload, String> {
    reject_foreign_fields(
        doc,
        RouterTag::Qec,
        &["circuit", "qasm", "strings", "edges", "qubits"],
    )?;
    let distance = doc
        .get("distance")
        .and_then(Item::as_u32)
        .ok_or("qec compile needs an integer `distance`")?;
    if distance < 2 {
        return Err(format!("qec distance must be at least 2, got {distance}"));
    }
    let rounds = match doc.get("rounds") {
        None | Some(Item::Null) => 1,
        Some(v) => v
            .as_u32()
            .filter(|&r| r > 0)
            .ok_or("`rounds` must be a positive integer")?,
    };
    let checks = u64::from(distance) * u64::from(distance);
    within_wire_limit("distance", checks)?;
    within_wire_limit("rounds", checks * u64::from(rounds))?;
    let theta = match doc.get("theta") {
        None | Some(Item::Null) => QEC_DEFAULT_THETA,
        Some(v) => v.as_f64().ok_or("`theta` must be a number")?,
    };
    if !theta.is_finite() {
        return Err("qec theta must be finite".into());
    }
    let options = match doc.get("parallel_waves") {
        None | Some(Item::Null) => None,
        Some(v) => Some(RouterOptions::Qec(QecOptions {
            parallel_waves: Some(v.as_bool().ok_or("`parallel_waves` must be a boolean")?),
        })),
    };
    Ok((Workload::surface_code(distance, rounds, theta), options))
}

/// Extracts the circuit from a compile request: either an inline
/// `"circuit"` object or a `"qasm"` source string (exactly one).
fn circuit_from_request(doc: &mut Fields<'_>) -> Result<Circuit, String> {
    let (field, circuit) = match (doc.circuit.take(), doc.get("qasm")) {
        (Some(_), Some(_)) => return Err("give either `circuit` or `qasm`, not both".into()),
        (Some(c), None) => ("num_qubits", c?),
        (None, Some(q)) => {
            let src = q.as_str().ok_or("`qasm` must be a string")?;
            ("qasm", Circuit::from_qasm(src).map_err(|e| e.to_string())?)
        }
        (None, None) => return Err("compile needs a `circuit` object or `qasm` string".into()),
    };
    within_wire_limit(field, u64::from(circuit.num_qubits()))?;
    Ok(circuit)
}

const NEEDS_QUBITS: &str = "circuit needs integer `num_qubits`";
const NEEDS_GATES: &str = "circuit needs a `gates` array";

/// Decodes the wire circuit object `{"num_qubits":N,"gates":[…]}` (gates
/// in the compact encoding of [`read_gate`]) at `r`, as part of the pass
/// that validates the whole line. A JSON error ends the read. The
/// circuit's first fault is the inner error; the rest of the value is
/// still validated, since a JSON error later in the line beats it. Gates
/// go straight into the circuit once `num_qubits` is known. Gates that
/// come before it are collected and pushed when the object closes, and
/// their first fault waits too, since `num_qubits` is checked first. A
/// value that is not an object has no `num_qubits`.
fn read_circuit(r: &mut Reader<'_>) -> Result<Result<Circuit, String>, JsonError> {
    if r.peek()? != Kind::Obj {
        r.skip()?;
        return Ok(Err(NEEDS_QUBITS.into()));
    }
    let (mut circuit, mut early, mut gates, mut fault) = (None, Vec::new(), None, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        if fault.is_some() {
            r.skip()?;
        } else if key == "num_qubits" && circuit.is_none() {
            match r.item()?.as_u32() {
                Some(n) => circuit = Some(Circuit::new(n)),
                None => fault = Some(NEEDS_QUBITS.to_string()),
            }
        } else if key == "gates" && gates.is_none() {
            match read_gates(r, circuit.as_mut(), &mut early)? {
                Err(e) if circuit.is_some() => fault = Some(e),
                read => gates = Some(read),
            }
        } else {
            r.skip()?;
        }
    }
    Ok(fault.map_or_else(|| close_circuit(circuit, early, gates), Err))
}

/// The circuit once its object has closed with no fault decided on the
/// way: `num_qubits`, then the gates that came before it, then the first
/// fault of those gates.
fn close_circuit(
    circuit: Option<Circuit>,
    early: Vec<Gate>,
    gates: Option<Result<(), String>>,
) -> Result<Circuit, String> {
    let mut circuit = circuit.ok_or(NEEDS_QUBITS)?;
    for gate in early {
        circuit.push(gate).map_err(|e| e.to_string())?;
    }
    gates.unwrap_or_else(|| Err(NEEDS_GATES.into()))?;
    Ok(circuit)
}

/// Walks a `gates` array, pushing each gate into `circuit`, or into
/// `early` while there is none, up to its first fault, which is the
/// inner error; the rest of the array is only validated.
fn read_gates(
    r: &mut Reader<'_>,
    mut circuit: Option<&mut Circuit>,
    early: &mut Vec<Gate>,
) -> Result<Result<(), String>, JsonError> {
    if r.peek()? != Kind::Arr {
        r.skip()?;
        return Ok(Err(NEEDS_GATES.into()));
    }
    r.begin_array()?;
    let mut fault = Ok(());
    while r.next_element()? {
        if fault.is_err() {
            r.skip()?;
            continue;
        }
        fault = match read_gate(r) {
            Ok(gate) => match circuit.as_deref_mut() {
                Some(circuit) => circuit.push(gate).map_err(|e| e.to_string()),
                None => {
                    early.push(gate);
                    Ok(())
                }
            },
            Err(WireError::Json(e)) => return Err(e),
            Err(e) => Err(e.to_string()),
        };
    }
    Ok(fault)
}

/// Serialises a circuit into the wire object that a compile request's
/// `"circuit"` field carries.
pub fn circuit_to_value_json(circuit: &Circuit) -> String {
    let mut out = String::with_capacity(24 + circuit.len() * 12);
    out.push_str("{\"num_qubits\":");
    out.push_str(&circuit.num_qubits().to_string());
    out.push_str(",\"gates\":[");
    let mut floats = FloatTable::default();
    for (i, g) in circuit.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_gate(&mut out, &mut floats, g);
    }
    out.push_str("]}");
    out
}

/// Builds a generic-router compile request line (used by `qpilot-cli`).
pub fn compile_request_line(
    circuit_json: &str,
    cols: Option<usize>,
    stage_cap: Option<usize>,
    deadline_ms: Option<u64>,
    include_schedule: bool,
) -> String {
    let mut out = String::from("{\"op\":\"compile\",\"circuit\":");
    out.push_str(circuit_json);
    if let Some(cap) = stage_cap {
        out.push_str(",\"stage_cap\":");
        out.push_str(&cap.to_string());
    }
    finish_compile_line(&mut out, cols, deadline_ms, include_schedule);
    out
}

/// Builds a qsim-router compile request line.
pub fn qsim_request_line(
    strings: &[String],
    theta: f64,
    max_copies: Option<usize>,
    cols: Option<usize>,
    deadline_ms: Option<u64>,
    include_schedule: bool,
) -> String {
    let mut out = String::from("{\"op\":\"compile\",\"router\":\"qsim\",\"strings\":[");
    for (i, s) in strings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(s));
    }
    out.push_str("],\"theta\":");
    out.push_str(&json::fmt_f64(theta));
    if let Some(copies) = max_copies {
        out.push_str(",\"max_copies\":");
        out.push_str(&copies.to_string());
    }
    finish_compile_line(&mut out, cols, deadline_ms, include_schedule);
    out
}

/// Builds a qaoa-router compile request line. Empty `betas` routes bare
/// cost layers; otherwise `betas` must match `gammas` in length.
#[allow(clippy::too_many_arguments)]
pub fn qaoa_request_line(
    qubits: u32,
    edges: &[(u32, u32)],
    gammas: &[f64],
    betas: &[f64],
    anchors: Option<usize>,
    column_extension: Option<bool>,
    cols: Option<usize>,
    deadline_ms: Option<u64>,
    include_schedule: bool,
) -> String {
    let mut out =
        format!("{{\"op\":\"compile\",\"router\":\"qaoa\",\"qubits\":{qubits},\"edges\":[");
    for (i, (a, b)) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{a},{b}]"));
    }
    out.push_str("],\"gammas\":[");
    for (i, g) in gammas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::fmt_f64(*g));
    }
    out.push(']');
    if !betas.is_empty() {
        out.push_str(",\"betas\":[");
        for (i, b) in betas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::fmt_f64(*b));
        }
        out.push(']');
    }
    if let Some(anchors) = anchors {
        out.push_str(",\"anchors\":");
        out.push_str(&anchors.to_string());
    }
    if let Some(ext) = column_extension {
        out.push_str(",\"column_extension\":");
        out.push_str(if ext { "true" } else { "false" });
    }
    finish_compile_line(&mut out, cols, deadline_ms, include_schedule);
    out
}

/// Builds a qec-router compile request line.
pub fn qec_request_line(
    distance: u32,
    rounds: u32,
    theta: f64,
    parallel_waves: Option<bool>,
    cols: Option<usize>,
    deadline_ms: Option<u64>,
    include_schedule: bool,
) -> String {
    let mut out = format!(
        "{{\"op\":\"compile\",\"router\":\"qec\",\"distance\":{distance},\"rounds\":{rounds},\"theta\":{}",
        json::fmt_f64(theta)
    );
    if let Some(waves) = parallel_waves {
        out.push_str(",\"parallel_waves\":");
        out.push_str(if waves { "true" } else { "false" });
    }
    finish_compile_line(&mut out, cols, deadline_ms, include_schedule);
    out
}

fn finish_compile_line(
    out: &mut String,
    cols: Option<usize>,
    deadline_ms: Option<u64>,
    include_schedule: bool,
) {
    if let Some(cols) = cols {
        out.push_str(",\"cols\":");
        out.push_str(&cols.to_string());
    }
    if let Some(deadline) = deadline_ms {
        out.push_str(",\"deadline_ms\":");
        out.push_str(&deadline.to_string());
    }
    if !include_schedule {
        out.push_str(",\"schedule\":false");
    }
    out.push('}');
}

fn write_stats_obj(out: &mut String, stats: &ScheduleStats) {
    out.push_str("{\"two_qubit_depth\":");
    out.push_str(&stats.two_qubit_depth.to_string());
    out.push_str(",\"two_qubit_gates\":");
    out.push_str(&stats.two_qubit_gates.to_string());
    out.push_str(",\"one_qubit_gates\":");
    out.push_str(&stats.one_qubit_gates.to_string());
    out.push_str(",\"moves\":");
    out.push_str(&stats.moves.to_string());
    out.push_str(",\"transfers\":");
    out.push_str(&stats.transfers.to_string());
    out.push_str(",\"peak_ancillas\":");
    out.push_str(&stats.peak_ancillas.to_string());
    out.push('}');
}

/// Renders a compile response line. `request_id` is the effective id
/// for this request (client-supplied or daemon-assigned); `"path"` is
/// [`CompileResponse::path`]. The pre-observability `"cache"` field
/// stays unchanged for existing clients. The transports write the same
/// line in parts, the schedule by reference; this joins them.
pub fn render_compile_response(
    response: &CompileResponse,
    include_schedule: bool,
    request_id: &str,
) -> String {
    compile_reply(response, include_schedule, request_id)
        .join()
        .response
}

/// A compile reply in its parts: the rendered head, then, when the
/// schedule is included, the cache entry's shared schedule text.
fn compile_reply(response: &CompileResponse, include_schedule: bool, request_id: &str) -> Reply {
    let entry = &response.entry;
    let mut out = String::with_capacity(256);
    out.push_str("{\"ok\":true,\"op\":\"compile\",\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"path\":\"");
    out.push_str(response.path());
    out.push_str("\",\"router\":\"");
    out.push_str(response.router.as_str());
    out.push_str("\",\"fingerprint\":\"");
    out.push_str(&response.fingerprint.to_string());
    out.push_str("\",\"cache\":\"");
    out.push_str(if response.cache_hit {
        "hit"
    } else if response.coalesced {
        "coalesced"
    } else {
        "miss"
    });
    out.push_str("\",\"compile_ms\":");
    out.push_str(&json::fmt_f64(round6(entry.compile_s * 1e3)));
    out.push_str(",\"stats\":");
    write_stats_obj(&mut out, &entry.stats);
    if !include_schedule {
        out.push('}');
        return Reply::line(out);
    }
    out.push_str(",\"schedule\":");
    Reply {
        head: out,
        schedule: Some(Arc::clone(&entry.schedule_json)),
        shutdown: false,
    }
}

/// Renders a stats response line: the service counters plus the
/// per-path request-latency summaries from the process-wide obs
/// histograms.
pub fn render_stats_response(stats: &ServiceStats, request_id: &str) -> String {
    let mut out = String::with_capacity(768);
    out.push_str("{\"ok\":true,\"op\":\"stats\",\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"requests\":");
    out.push_str(&stats.requests.to_string());
    out.push_str(",\"hits\":");
    out.push_str(&stats.cache.hits.to_string());
    out.push_str(",\"misses\":");
    out.push_str(&stats.cache.misses.to_string());
    out.push_str(",\"hit_rate\":");
    out.push_str(&json::fmt_f64(round6(stats.cache.hit_rate())));
    out.push_str(",\"evictions\":");
    out.push_str(&stats.cache.evictions.to_string());
    out.push_str(",\"cache_entries\":");
    out.push_str(&stats.cache_entries.to_string());
    out.push_str(",\"cache_bytes\":");
    out.push_str(&stats.cache_bytes.to_string());
    out.push_str(",\"compiles\":");
    out.push_str(&stats.compiles.to_string());
    out.push_str(",\"coalesced\":");
    out.push_str(&stats.coalesced.to_string());
    out.push_str(",\"shed\":");
    out.push_str(&stats.shed.to_string());
    out.push_str(",\"deadline_misses\":");
    out.push_str(&stats.deadline_misses.to_string());
    out.push_str(",\"draining\":");
    out.push_str(if stats.draining { "true" } else { "false" });
    out.push_str(",\"store_persisted\":");
    out.push_str(&stats.store_persisted.to_string());
    out.push_str(",\"store_loaded\":");
    out.push_str(&stats.store_loaded.to_string());
    out.push_str(",\"p50_compile_ms\":");
    out.push_str(&json::fmt_f64(round6(stats.p50_compile_s * 1e3)));
    out.push_str(",\"p90_compile_ms\":");
    out.push_str(&json::fmt_f64(round6(stats.p90_compile_s * 1e3)));
    out.push_str(",\"p99_compile_ms\":");
    out.push_str(&json::fmt_f64(round6(stats.p99_compile_s * 1e3)));
    out.push_str(",\"latency\":{");
    // Paths that never served a request are omitted entirely: an empty
    // histogram has no percentiles, and a fabricated `p99_ms: 0` is
    // indistinguishable from a genuinely sub-microsecond path.
    let mut first = true;
    for (path, histogram) in crate::metrics::REQUEST_PATHS.iter() {
        let snap = histogram.snapshot();
        if snap.count() == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let ms = |q: f64| json::fmt_f64(round6(snap.percentile(q) as f64 * 1e-6));
        out.push_str(&json_str(path));
        out.push_str(":{\"count\":");
        out.push_str(&snap.count().to_string());
        out.push_str(",\"p50_ms\":");
        out.push_str(&ms(0.50));
        out.push_str(",\"p90_ms\":");
        out.push_str(&ms(0.90));
        out.push_str(",\"p99_ms\":");
        out.push_str(&ms(0.99));
        out.push('}');
    }
    out.push_str("},\"workers\":");
    out.push_str(&stats.workers.to_string());
    out.push('}');
    out
}

/// Renders a metrics response line: the Prometheus text exposition
/// (identical bytes to the HTTP surface) JSON-escaped into one field.
pub fn render_metrics_response(service: &Service, request_id: &str) -> String {
    let exposition = crate::metrics::render_exposition(service);
    let mut out = String::with_capacity(exposition.len() + 128);
    out.push_str("{\"ok\":true,\"op\":\"metrics\",\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"content_type\":");
    out.push_str(&json_str(crate::metrics::EXPOSITION_CONTENT_TYPE));
    out.push_str(",\"exposition\":");
    out.push_str(&json_str(&exposition));
    out.push('}');
    out
}

/// Renders a store-stats response line: the startup recovery report
/// (blobs loaded / discarded, and `recover_ms`, the pass's wall time),
/// lifetime persist/unlink counters, and the blobs and bytes in the
/// store directory now. `configured` is `false` when the daemon runs
/// without `--store` (all counters zero).
pub fn render_store_stats_response(stats: &StoreStats, request_id: &str) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"ok\":true,\"op\":\"store-stats\",\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"configured\":");
    out.push_str(if stats.configured { "true" } else { "false" });
    out.push_str(",\"loaded\":");
    out.push_str(&stats.recovery.loaded.to_string());
    out.push_str(",\"discarded\":");
    out.push_str(&stats.recovery.discarded.to_string());
    out.push_str(",\"persisted\":");
    out.push_str(&stats.persisted.to_string());
    out.push_str(",\"removed\":");
    out.push_str(&stats.removed.to_string());
    out.push_str(",\"entries\":");
    out.push_str(&stats.entries.to_string());
    out.push_str(",\"bytes\":");
    out.push_str(&stats.bytes.to_string());
    out.push_str(",\"recover_ms\":");
    out.push_str(&json::fmt_f64(round6(
        stats.recovery.elapsed.as_secs_f64() * 1e3,
    )));
    out.push('}');
    out
}

/// The serving-path label for a failed request: `shed` for overload,
/// `error` for everything else.
pub fn error_path(error: &ServiceError) -> &'static str {
    match error {
        ServiceError::Overloaded { .. } => "shed",
        _ => "error",
    }
}

/// Renders an error line. `retry` marks transient conditions (overload);
/// `request_id` is echoed so failed requests stay correlatable.
pub fn render_error(message: &str, retry: bool, request_id: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"path\":\"error\",\"error\":");
    out.push_str(&json_str(message));
    if retry {
        out.push_str(",\"retry\":true");
    }
    out.push('}');
    out
}

/// Renders a [`ServiceError`] into an error line with its
/// machine-readable markers: `"retry":true` plus `"retry_after_ms"` for
/// overload, `"retry":true` alone for a draining service, and
/// `"deadline":true` for a missed deadline. Every line echoes
/// `request_id` and carries its `"path"` ([`error_path`]).
pub fn render_service_error(error: &ServiceError, request_id: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"request_id\":");
    out.push_str(&json_str(request_id));
    out.push_str(",\"path\":\"");
    out.push_str(error_path(error));
    out.push_str("\",\"error\":");
    out.push_str(&json_str(&error.to_string()));
    match error {
        ServiceError::Overloaded { retry_after_ms } => {
            out.push_str(",\"retry\":true,\"retry_after_ms\":");
            out.push_str(&retry_after_ms.to_string());
        }
        // A drain elsewhere is transient for the client: another
        // replica (or the restarted daemon) can serve the retry.
        ServiceError::ShuttingDown => out.push_str(",\"retry\":true"),
        ServiceError::Deadline { .. } => out.push_str(",\"deadline\":true"),
        ServiceError::Compile(_) | ServiceError::Internal(_) => {}
    }
    out.push('}');
    out
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// The dispatch outcome: the response line, plus whether the daemon
/// should shut down after sending it.
#[derive(Debug, Clone, PartialEq)]
pub struct Handled {
    /// The response line (no trailing newline).
    pub response: String,
    /// `true` after a `shutdown` request.
    pub shutdown: bool,
}

/// A reply line as the transports write it: `head`, then, for a compile
/// reply that carries its schedule, the cache entry's shared schedule
/// text and the closing `}`, then the newline ([`Reply::tail`]). A hit
/// so holds its schedule by reference, not by a copy.
pub(crate) struct Reply {
    /// The line up to the schedule, or the whole line.
    pub(crate) head: String,
    /// The cached schedule the line carries.
    pub(crate) schedule: Option<Arc<str>>,
    /// `true` after a `shutdown` request.
    pub(crate) shutdown: bool,
}

impl Reply {
    /// A reply whose `head` is the whole line.
    pub(crate) fn line(head: String) -> Reply {
        Reply {
            head,
            schedule: None,
            shutdown: false,
        }
    }

    /// The bytes after the schedule, or after `head` when there is none.
    pub(crate) fn tail(&self) -> &'static [u8] {
        match self.schedule {
            Some(_) => b"}\n",
            None => b"\n",
        }
    }

    /// Writes the line and its newline to `out`, the schedule from its
    /// shared text.
    pub(crate) fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(self.head.as_bytes())?;
        if let Some(schedule) = &self.schedule {
            out.write_all(schedule.as_bytes())?;
        }
        out.write_all(self.tail())
    }

    /// The line joined into one string, without its newline.
    fn join(self) -> Handled {
        let mut response = self.head;
        if let Some(schedule) = self.schedule {
            response.reserve_exact(schedule.len() + 1);
            response.push_str(&schedule);
            response.push('}');
        }
        Handled {
            response,
            shutdown: self.shutdown,
        }
    }
}

impl From<Handled> for Reply {
    fn from(handled: Handled) -> Reply {
        Reply {
            head: handled.response,
            schedule: None,
            shutdown: handled.shutdown,
        }
    }
}

/// Parses and executes one request line against `service`. Never panics
/// on malformed input; every failure becomes an `{"ok":false}` line
/// echoing the request id (the client's when one survived parsing, a
/// daemon-assigned `r-<hex>` otherwise).
pub fn handle_line(service: &Service, line: &str) -> Handled {
    reply_to(service, line).join()
}

/// [`handle_line`] with the reply in the parts the transports write.
pub(crate) fn reply_to(service: &Service, line: &str) -> Reply {
    let line = line.trim();
    let started = Instant::now();
    // The parse span covers the validating pass plus request decoding;
    // the error branch keeps any client id that survived far enough to
    // read.
    let parsed: Result<(Request, Option<String>), (String, Option<String>)> = {
        let _span = obs::Span::start(&crate::metrics::STAGE_PARSE);
        if line.is_empty() {
            Err(("empty request line".to_string(), None))
        } else {
            match Fields::read(line) {
                Err(e) => Err((e.to_string(), None)),
                Ok(doc) => match request_id_from(&doc) {
                    Err(message) => Err((message, None)),
                    Ok(rid) => match parse_request_doc(doc, rid.clone()) {
                        Ok(request) => Ok((request, rid)),
                        Err(message) => Err((message, rid)),
                    },
                },
            }
        }
    };
    let (request, rid) = match parsed {
        Err((message, rid)) => {
            let rid = rid.unwrap_or_else(next_request_id);
            events::emit(
                "request",
                &[
                    ("request_id", Field::Str(rid.clone())),
                    ("path", Field::Str("error".to_string())),
                    ("ok", Field::Bool(false)),
                ],
            );
            return Reply::line(render_error(&message, false, &rid));
        }
        Ok((request, rid)) => (request, rid.unwrap_or_else(next_request_id)),
    };
    match request {
        Request::Ping => Reply::line(format!(
            "{{\"ok\":true,\"op\":\"pong\",\"request_id\":{}}}",
            json_str(&rid)
        )),
        Request::Stats => Reply::line(render_stats_response(&service.stats(), &rid)),
        Request::StoreStats => {
            Reply::line(render_store_stats_response(&service.store_stats(), &rid))
        }
        Request::Metrics => Reply::line(render_metrics_response(service, &rid)),
        Request::Shutdown => Reply {
            shutdown: true,
            ..Reply::line(format!(
                "{{\"ok\":true,\"op\":\"shutdown\",\"request_id\":{}}}",
                json_str(&rid)
            ))
        },
        Request::Compile {
            request,
            include_schedule,
        } => {
            // Shedding, not blocking: a full queue answers `Overloaded`
            // (with a backoff hint) immediately instead of wedging the
            // connection thread — the degradation-ladder contract.
            let result = service.try_compile(request);
            let path = match &result {
                Ok(response) => response.path(),
                Err(e) => error_path(e),
            };
            events::emit(
                "request",
                &[
                    ("request_id", Field::Str(rid.clone())),
                    ("path", Field::Str(path.to_string())),
                    ("ms", Field::F64(started.elapsed().as_secs_f64() * 1e3)),
                    ("ok", Field::Bool(result.is_ok())),
                ],
            );
            match result {
                Ok(response) => compile_reply(&response, include_schedule, &rid),
                Err(e) => Reply::line(render_service_error(&e, &rid)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServiceConfig;
    use qpilot_core::json::Value;

    fn service() -> Service {
        Service::new(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 16,
            cache_shards: 2,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn circuit_wire_round_trip() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).rz(2, -0.5).zz(1, 2, 0.25).swap(0, 2);
        let encoded = circuit_to_value_json(&c);
        let back = read_circuit(&mut Reader::new(&encoded)).unwrap().unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parse_compile_with_inline_circuit() {
        let line = r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]},"cols":2,"stage_cap":3,"schedule":false}"#;
        match parse_request(line).unwrap() {
            Request::Compile {
                request,
                include_schedule,
            } => {
                let Workload::Generic(circuit) = &request.workload else {
                    panic!("expected generic workload");
                };
                assert_eq!(circuit.len(), 1);
                assert_eq!(request.cols, Some(2));
                assert_eq!(
                    request.options,
                    Some(RouterOptions::Generic(GenericRouterOptions {
                        stage_cap: Some(3)
                    }))
                );
                assert!(!include_schedule);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parse_compile_with_qasm() {
        let line = r#"{"op":"compile","qasm":"OPENQASM 2.0;\nqreg q[2];\ncz q[0], q[1];"}"#;
        match parse_request(line).unwrap() {
            Request::Compile { request, .. } => {
                let Workload::Generic(circuit) = &request.workload else {
                    panic!("expected generic workload");
                };
                assert_eq!(circuit.num_qubits(), 2);
                assert_eq!(circuit.len(), 1);
                assert_eq!(request.router(), RouterTag::Generic);
                assert_eq!(request.options, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parse_qsim_compile() {
        let line = r#"{"op":"compile","router":"qsim","strings":["ZZII","IXXI"],"theta":0.5,"max_copies":2}"#;
        match parse_request(line).unwrap() {
            Request::Compile { request, .. } => {
                let Workload::Qsim(strings) = &request.workload else {
                    panic!("expected qsim workload");
                };
                assert_eq!(strings.len(), 2);
                assert_eq!(strings[0].1, 0.5);
                assert_eq!(
                    request.options,
                    Some(RouterOptions::Qsim(QsimRouterOptions {
                        max_copies: Some(2)
                    }))
                );
                assert_eq!(request.router(), RouterTag::Qsim);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // Per-string angles via the parallel array form.
        let weighted =
            r#"{"op":"compile","router":"qsim","strings":["ZZ","XX"],"angles":[0.25,-0.5]}"#;
        match parse_request(weighted).unwrap() {
            Request::Compile { request, .. } => {
                let Workload::Qsim(strings) = &request.workload else {
                    panic!("expected qsim workload");
                };
                assert_eq!(strings[0].1, 0.25);
                assert_eq!(strings[1].1, -0.5);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parse_qaoa_compile() {
        let line = r#"{"op":"compile","router":"qaoa","qubits":4,"edges":[[0,1],[2,3]],"gamma":0.7,"beta":0.3,"anchors":2,"column_extension":false}"#;
        match parse_request(line).unwrap() {
            Request::Compile { request, .. } => {
                let Workload::Qaoa(q) = &request.workload else {
                    panic!("expected qaoa workload");
                };
                assert_eq!(q.num_qubits, 4);
                assert_eq!(q.edges, [(0, 1), (2, 3)]);
                assert_eq!(q.gammas, [0.7]);
                assert_eq!(q.betas, [0.3]);
                assert_eq!(
                    request.options,
                    Some(RouterOptions::Qaoa(QaoaOptions {
                        anchor_candidates: Some(2),
                        column_extension: Some(false),
                    }))
                );
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parse_qec_compile() {
        let line = r#"{"op":"compile","router":"qec","distance":3,"rounds":2,"theta":0.5,"parallel_waves":false}"#;
        match parse_request(line).unwrap() {
            Request::Compile { request, .. } => {
                let Workload::Qec(q) = &request.workload else {
                    panic!("expected qec workload");
                };
                assert_eq!(q.distance, 3);
                assert_eq!(q.rounds, 2);
                assert_eq!(q.theta, 0.5);
                assert_eq!(
                    request.options,
                    Some(RouterOptions::Qec(QecOptions {
                        parallel_waves: Some(false)
                    }))
                );
                assert_eq!(request.router(), RouterTag::Qec);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // Rounds and theta default (1 round, π/4).
        let minimal = r#"{"op":"compile","router":"qec","distance":3}"#;
        match parse_request(minimal).unwrap() {
            Request::Compile { request, .. } => {
                let Workload::Qec(q) = &request.workload else {
                    panic!("expected qec workload");
                };
                assert_eq!(q.rounds, 1);
                assert_eq!(q.theta, QEC_DEFAULT_THETA);
                assert_eq!(request.options, None);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn request_line_builders_round_trip() {
        let qsim = qsim_request_line(
            &["ZZI".to_string(), "IXX".to_string()],
            0.4,
            Some(2),
            Some(3),
            Some(250),
            false,
        );
        match parse_request(&qsim).unwrap() {
            Request::Compile {
                request,
                include_schedule,
            } => {
                assert_eq!(request.router(), RouterTag::Qsim);
                assert_eq!(request.cols, Some(3));
                assert_eq!(request.deadline_ms, Some(250));
                assert!(!include_schedule);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        let qaoa = qaoa_request_line(
            5,
            &[(0, 1), (1, 2)],
            &[0.7],
            &[0.3],
            Some(1),
            Some(true),
            None,
            None,
            true,
        );
        match parse_request(&qaoa).unwrap() {
            Request::Compile { request, .. } => {
                assert_eq!(request.router(), RouterTag::Qaoa);
                let Workload::Qaoa(q) = &request.workload else {
                    panic!("expected qaoa workload");
                };
                assert_eq!(q.edges.len(), 2);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        let qec = qec_request_line(3, 2, 0.4, Some(true), None, Some(100), true);
        match parse_request(&qec).unwrap() {
            Request::Compile { request, .. } => {
                assert_eq!(request.router(), RouterTag::Qec);
                let Workload::Qec(q) = &request.workload else {
                    panic!("expected qec workload");
                };
                assert_eq!((q.distance, q.rounds, q.theta), (3, 2, 0.4));
                assert_eq!(request.deadline_ms, Some(100));
                assert_eq!(
                    request.options,
                    Some(RouterOptions::Qec(QecOptions {
                        parallel_waves: Some(true)
                    }))
                );
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn auto_router_sniffs_the_workload_family() {
        for (line, tag) in [
            (
                r#"{"op":"compile","router":"auto","circuit":{"num_qubits":2,"gates":[["cz",0,1]]}}"#,
                RouterTag::Generic,
            ),
            (
                r#"{"op":"compile","router":"auto","strings":["ZZ"],"theta":0.5}"#,
                RouterTag::Qsim,
            ),
            (
                r#"{"op":"compile","router":"auto","qubits":2,"edges":[[0,1]],"gamma":0.7}"#,
                RouterTag::Qaoa,
            ),
            (
                r#"{"op":"compile","router":"auto","distance":3}"#,
                RouterTag::Qec,
            ),
            // Non-marker fields never steer the inference, wherever they
            // sit relative to the marker.
            (
                r#"{"op":"compile","router":"auto","theta":0.5,"strings":["ZZ"]}"#,
                RouterTag::Qsim,
            ),
            (
                r#"{"op":"compile","router":"auto","rounds":2,"distance":3,"theta":0.5}"#,
                RouterTag::Qec,
            ),
        ] {
            match parse_request(line).unwrap() {
                Request::Compile { request, .. } => assert_eq!(request.router(), tag, "{line}"),
                other => panic!("unexpected parse: {other:?}"),
            }
        }
    }

    #[test]
    fn auto_router_rejects_cross_family_payloads_naming_the_fields() {
        for (line, first, second) in [
            (
                r#"{"op":"compile","router":"auto","circuit":{"num_qubits":2,"gates":[]},"strings":["ZZ"]}"#,
                "circuit",
                "strings",
            ),
            (
                r#"{"op":"compile","router":"auto","strings":["ZZ"],"edges":[[0,1]]}"#,
                "strings",
                "edges",
            ),
            (
                r#"{"op":"compile","router":"auto","distance":3,"qasm":"qreg q[2];"}"#,
                "qasm",
                "distance",
            ),
            (
                r#"{"op":"compile","router":"auto","qubits":4,"distance":3}"#,
                "qubits",
                "distance",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains("ambiguous"), "{line} -> {err}");
            assert!(err.contains(&format!("`{first}`")), "{line} -> {err}");
            assert!(err.contains(&format!("`{second}`")), "{line} -> {err}");
        }
        // Same-family marker pairs are not ambiguous; the family parser
        // arbitrates (and rejects circuit+qasm on its own terms).
        let both = r#"{"op":"compile","router":"auto","circuit":{"num_qubits":2,"gates":[]},"qasm":"qreg q[2];"}"#;
        let err = parse_request(both).unwrap_err();
        assert!(err.contains("either `circuit` or `qasm`"), "{err}");
    }

    #[test]
    fn store_stats_op_round_trips() {
        let svc = service();
        let handled = handle_line(&svc, r#"{"op":"store-stats"}"#);
        let doc = json::parse(&handled.response).unwrap();
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("op").and_then(Value::as_str), Some("store-stats"));
        assert_eq!(doc.get("configured").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("loaded").and_then(Value::as_u64), Some(0));
        assert_eq!(doc.get("recover_ms").and_then(Value::as_f64), Some(0.0));
        assert!(!handled.shutdown);
        // `recover_ms` is appended after every older field.
        let Value::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys[keys.len() - 2..], ["bytes", "recover_ms"]);
        let stats = StoreStats {
            configured: true,
            recovery: crate::store::RecoveryReport {
                loaded: 4,
                discarded: 0,
                elapsed: std::time::Duration::from_micros(17_250),
            },
            ..StoreStats::default()
        };
        let line = render_store_stats_response(&stats, "r-1");
        assert!(
            line.ends_with(r#""loaded":4,"discarded":0,"persisted":0,"removed":0,"entries":0,"bytes":0,"recover_ms":17.25}"#),
            "{line}"
        );
    }

    #[test]
    fn foreign_fields_are_rejected_per_router() {
        for line in [
            // generic request carrying qsim/qaoa payloads
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[]},"strings":["ZZ"]}"#,
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[]},"edges":[[0,1]]}"#,
            // qsim request carrying a circuit
            r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":0.5,"qasm":"qreg q[2];"}"#,
            // qaoa request carrying strings
            r#"{"op":"compile","router":"qaoa","qubits":2,"edges":[[0,1]],"gamma":0.7,"strings":["ZZ"]}"#,
            // qec request carrying a circuit or qaoa payload
            r#"{"op":"compile","router":"qec","distance":3,"circuit":{"num_qubits":2,"gates":[]}}"#,
            r#"{"op":"compile","router":"qec","distance":3,"edges":[[0,1]]}"#,
            // unknown router
            r#"{"op":"compile","router":"warp","circuit":{"num_qubits":2,"gates":[]}}"#,
        ] {
            assert!(parse_request(line).is_err(), "{line}");
        }
    }

    #[test]
    fn qasm_and_inline_circuit_agree_on_fingerprint() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 2).rz(1, 0.75);
        let via_json = format!(
            r#"{{"op":"compile","circuit":{}}}"#,
            circuit_to_value_json(&c)
        );
        let via_qasm = format!(r#"{{"op":"compile","qasm":{}}}"#, json_str(&c.to_qasm()));
        let fp = |line: &str| match parse_request(line).unwrap() {
            Request::Compile { request, .. } => request.fingerprint(),
            _ => unreachable!(),
        };
        assert_eq!(fp(&via_json), fp(&via_qasm));
    }

    #[test]
    fn bad_requests_get_error_lines() {
        let svc = service();
        for line in [
            "",
            "not json",
            "{\"op\":\"warp\"}",
            "{\"op\":\"compile\"}",
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,0]]}}"#,
            r#"{"op":"compile","qasm":"qreg q[1]; frobnicate q[0];"}"#,
            r#"{"op":"compile","circuit":{"num_qubits":1,"gates":[]},"cols":0}"#,
            // Non-finite angles must be rejected at parse time: routed
            // and then serialised they would panic a worker thread.
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["rz",0,1e999]]}}"#,
            r#"{"op":"compile","qasm":"qreg q[1]; rz(inf) q[0];"}"#,
            r#"{"op":"compile","qasm":"qreg q[1]; rz(NaN) q[0];"}"#,
            // Malformed multi-router payloads.
            r#"{"op":"compile","router":"qsim","strings":["ZQ"],"theta":0.5}"#,
            r#"{"op":"compile","router":"qsim","strings":["ZZ"]}"#,
            r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":1e999}"#,
            r#"{"op":"compile","router":"qsim","strings":[],"theta":0.5}"#,
            r#"{"op":"compile","router":"qaoa","qubits":0,"edges":[],"gamma":0.7}"#,
            r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0]],"gamma":0.7}"#,
            r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gammas":[0.1,0.2],"betas":[0.3]}"#,
            r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[1,1]],"gamma":0.7}"#,
            // Malformed qec payloads.
            r#"{"op":"compile","router":"qec"}"#,
            r#"{"op":"compile","router":"qec","distance":1}"#,
            r#"{"op":"compile","router":"qec","distance":3,"rounds":0}"#,
            r#"{"op":"compile","router":"qec","distance":3,"theta":1e999}"#,
            r#"{"op":"compile","router":"qec","distance":3,"parallel_waves":"yes"}"#,
        ] {
            let handled = handle_line(&svc, line);
            assert!(handled.response.starts_with("{\"ok\":false"), "{line}");
            assert!(!handled.shutdown);
            // Every error line is itself valid JSON.
            json::parse(&handled.response).unwrap();
        }
        // And the workers survived every malformed request above.
        let ok = handle_line(
            &svc,
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]}}"#,
        );
        assert!(ok.response.starts_with("{\"ok\":true"));
    }

    /// What the decision table pins of an accepted request: the router,
    /// the fingerprint (the workload and its options), the options, and
    /// the envelope fields.
    fn summary(request: &Request) -> String {
        match request {
            Request::Compile {
                request,
                include_schedule,
            } => format!(
                "{} {} {:?} cols={:?} deadline={:?} rid={:?} schedule={}",
                request.router(),
                request.fingerprint(),
                request.options,
                request.cols,
                request.deadline_ms,
                request.request_id,
                include_schedule
            ),
            other => format!("{other:?}"),
        }
    }

    /// The request decoder's decisions, pinned row by row: for each line,
    /// the accepted request's summary or the exact error text. The table
    /// was captured from the `Value`-tree decoder that the reader-based
    /// one replaced, and every row reads the same on both. It covers keys
    /// out of order, duplicate keys (the first wins), escaped keys,
    /// whitespace, unknown nested keys, lenient numbers, the depth edge,
    /// a `null` family marker under `router:"auto"`, JSON errors, and one
    /// row for each message a single fault reaches. The rows from "gate
    /// fault, then a json error later in the line" on were captured from
    /// the decoder that walked the circuit's text a second time, before
    /// the circuit moved into the validating pass; they pin the order
    /// that pass keeps: a JSON error anywhere beats a fault in the
    /// circuit, and a faulty circuit is judged only where the checks
    /// reach it.
    #[test]
    fn request_decode_decisions_match_the_table() {
        let rows: Vec<(&str, String, Result<&str, &str>)> = vec![
            (
                r#"ping"#,
                r#"{"op":"ping"}"#.to_string(),
                Ok(r#"Ping"#),
            ),
            (
                r#"generic"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"cols":2,"stage_cap":3,"schedule":false,"deadline_ms":150,"request_id":"a1"}"#.to_string(),
                Ok(r#"generic 36b66e7205f9bee41d2d392335b6cd28 Some(Generic(GenericRouterOptions { stage_cap: Some(3) })) cols=Some(2) deadline=Some(150) rid=Some("a1") schedule=false"#),
            ),
            (
                r#"gates before num_qubits"#,
                r#"{"op":"compile","circuit":{"gates":[["cz",0,1],["rz",1,0.5]],"num_qubits":2}}"#.to_string(),
                Ok(r#"generic 83be2e7e75e2a0a261fba1cfcb220c74 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"circuit before op"#,
                r#"{"circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"op":"compile"}"#.to_string(),
                Ok(r#"generic 83be2e7e75e2a0a261fba1cfcb220c74 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"duplicate op, first wins"#,
                r#"{"op":"ping","op":"compile"}"#.to_string(),
                Ok(r#"Ping"#),
            ),
            (
                r#"duplicate circuit, first wins"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"circuit":5}"#.to_string(),
                Ok(r#"generic 83be2e7e75e2a0a261fba1cfcb220c74 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"duplicate num_qubits, first wins"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]],"num_qubits":"x"}}"#.to_string(),
                Ok(r#"generic 8fbf82d59ce5bdeab186d3ed4e2fcd5e None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"duplicate gates, first wins"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]],"gates":[["q"]]}}"#.to_string(),
                Ok(r#"generic 8fbf82d59ce5bdeab186d3ed4e2fcd5e None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"duplicate gates, first is bad"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["q"]],"gates":[["cz",0,1]]}}"#.to_string(),
                Err(r#"schedule schema error: unknown gate mnemonic `q`"#),
            ),
            (
                r#"escaped op key"#,
                r#"{"\u006fp":"ping"}"#.to_string(),
                Ok(r#"Ping"#),
            ),
            (
                r#"escaped keys in circuit"#,
                r#"{"op":"compile","circ\u0075it":{"num\u005fqubits":2,"g\u0061tes":[["cz",0,1]]}}"#.to_string(),
                Ok(r#"generic 8fbf82d59ce5bdeab186d3ed4e2fcd5e None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"escaped value"#,
                r#"{"op":"p\u0069ng"}"#.to_string(),
                Ok(r#"Ping"#),
            ),
            (
                r#"whitespace everywhere"#,
                " { \"op\" : \"compile\" , \"circuit\" : { \"num_qubits\" : 2 , \"gates\" : [ [ \"cz\" , 0 , 1 ] ,\n\t[ \"rz\" , 1 , 0.5 ] ] } , \"cols\" : 2 }\r\n".to_string(),
                Ok(r#"generic 83be2e7e75e2a0a261fba1cfcb220c74 None cols=Some(2) deadline=None rid=None schedule=true"#),
            ),
            (
                r#"unknown nested keys"#,
                r#"{"op":"compile","x":{"a":[1,{"b":null}]},"circuit":{"y":[[]],"num_qubits":2,"gates":[["cz",0,1]]}}"#.to_string(),
                Ok(r#"generic 8fbf82d59ce5bdeab186d3ed4e2fcd5e None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"lenient integers"#,
                r#"{"op":"compile","circuit":{"num_qubits":+3,"gates":[["cz",0.,002]]},"cols":2e0}"#.to_string(),
                Ok(r#"generic e38ebcd3b8579794ab2d0fa611edbb68 None cols=Some(2) deadline=None rid=None schedule=true"#),
            ),
            (
                r#"lenient floats"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":.5}"#.to_string(),
                Ok(r#"qsim 9e7347146732261042e159348d8dff52 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"1e999 gate angle"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["rz",0,1e999]]}}"#.to_string(),
                Err(r#"schedule schema error: gate `rz` needs a finite angle at 2"#),
            ),
            (
                r#"1e999 qsim theta"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":1e999}"#.to_string(),
                Err(r#"qsim angles must be finite"#),
            ),
            (
                r#"-1e999 gamma"#,
                r#"{"op":"compile","router":"qaoa","qubits":2,"edges":[[0,1]],"gamma":-1e999}"#.to_string(),
                Err(r#"qaoa angles must be finite"#),
            ),
            (
                r#"128 nested [] in an ignored key"#,
                [r#"{"op":"ping","x":"#, &r#"["#.repeat(128), &r#"]"#.repeat(128), r#"}"#].concat(),
                Ok(r#"Ping"#),
            ),
            (
                r#"128 nested arrays around 1 in an ignored key"#,
                [r#"{"op":"ping","x":"#, &r#"["#.repeat(128), r#"1"#, &r#"]"#.repeat(128), r#"}"#].concat(),
                Err(r#"json error at byte 145: nesting deeper than 128 levels"#),
            ),
            (
                r#"deep nesting inside circuit"#,
                [r#"{"op":"compile","circuit":{"num_qubits":2,"x":"#, &r#"["#.repeat(126), &r#"]"#.repeat(126), r#","gates":[["cz",0,1]]}}"#].concat(),
                Ok(r#"generic 8fbf82d59ce5bdeab186d3ed4e2fcd5e None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"too deep inside circuit"#,
                [r#"{"op":"compile","circuit":{"num_qubits":2,"x":"#, &r#"["#.repeat(127), r#"1"#, &r#"]"#.repeat(127), r#","gates":[["cz",0,1]]}}"#].concat(),
                Err(r#"json error at byte 173: nesting deeper than 128 levels"#),
            ),
            (
                r#"null marker under auto"#,
                r#"{"op":"compile","router":"auto","strings":null,"circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]}}"#.to_string(),
                Err(r#"ambiguous `auto` compile: `circuit` implies the `generic` router but `strings` implies `qsim`"#),
            ),
            (
                r#"null router"#,
                r#"{"op":"compile","router":null,"circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]}}"#.to_string(),
                Ok(r#"generic 83be2e7e75e2a0a261fba1cfcb220c74 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"auto qsim"#,
                r#"{"op":"compile","router":"auto","theta":0.5,"strings":["ZZ"]}"#.to_string(),
                Ok(r#"qsim 9e7347146732261042e159348d8dff52 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"not JSON, early fields invalid"#,
                r#"{"op":5,"request_id":7,"circuit":{]"#.to_string(),
                Err(r#"json error at byte 34: expected string"#),
            ),
            (
                r#"not JSON"#,
                r#"not json"#.to_string(),
                Err(r#"json error at byte 0: invalid literal"#),
            ),
            (
                r#"not an object"#,
                r#"[1,2]"#.to_string(),
                Err(r#"request needs a string `op` field"#),
            ),
            (
                r#"not an object, string"#,
                r#""ping""#.to_string(),
                Err(r#"request needs a string `op` field"#),
            ),
            (
                r#"missing op"#,
                r#"{"request_id":"x"}"#.to_string(),
                Err(r#"request needs a string `op` field"#),
            ),
            (
                r#"op not a string"#,
                r#"{"op":["ping"]}"#.to_string(),
                Err(r#"request needs a string `op` field"#),
            ),
            (
                r#"unknown op"#,
                r#"{"op":"warp"}"#.to_string(),
                Err(r#"unknown op `warp`"#),
            ),
            (
                r#"request_id not a string"#,
                r#"{"op":"ping","request_id":7}"#.to_string(),
                Err(r#"`request_id` must be a string"#),
            ),
            (
                r#"request_id too long"#,
                [r#"{"op":"ping","request_id":""#, &r#"x"#.repeat(129), r#""}"#].concat(),
                Err(r#"`request_id` must be 1..=128 bytes"#),
            ),
            (
                r#"request_id empty"#,
                r#"{"op":"ping","request_id":""}"#.to_string(),
                Err(r#"`request_id` must be 1..=128 bytes"#),
            ),
            (
                r#"request_id null"#,
                r#"{"op":"ping","request_id":null}"#.to_string(),
                Ok(r#"Ping"#),
            ),
            (
                r#"router not a string"#,
                r#"{"op":"compile","router":5,"circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]}}"#.to_string(),
                Err(r#"`router` must be a string"#),
            ),
            (
                r#"unknown router"#,
                r#"{"op":"compile","router":"warp","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]}}"#.to_string(),
                Err(r#"unknown router `warp` (auto|generic|qsim|qaoa|qec)"#),
            ),
            (
                r#"ambiguous auto"#,
                r#"{"op":"compile","router":"auto","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"distance":3}"#.to_string(),
                Err(r#"ambiguous `auto` compile: `circuit` implies the `generic` router but `distance` implies `qec`"#),
            ),
            (
                r#"cols zero"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"cols":0}"#.to_string(),
                Err(r#"`cols` must be a positive integer"#),
            ),
            (
                r#"cols too large"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"cols":70000}"#.to_string(),
                Err(r#"`cols` implies a size of 70000, over the limit of 65536"#),
            ),
            (
                r#"schedule not bool"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"schedule":1}"#.to_string(),
                Err(r#"`schedule` must be a boolean"#),
            ),
            (
                r#"schedule null"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"schedule":null}"#.to_string(),
                Err(r#"`schedule` must be a boolean"#),
            ),
            (
                r#"deadline_ms string"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"deadline_ms":"soon"}"#.to_string(),
                Err(r#"`deadline_ms` must be a non-negative integer"#),
            ),
            (
                r#"deadline_ms null"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"deadline_ms":null}"#.to_string(),
                Ok(r#"generic 83be2e7e75e2a0a261fba1cfcb220c74 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"generic foreign field"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"edges":[[0,1]]}"#.to_string(),
                Err(r#"`edges` is not a `generic` router field"#),
            ),
            (
                r#"stage_cap zero"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"stage_cap":0}"#.to_string(),
                Err(r#"`stage_cap` must be a positive integer"#),
            ),
            (
                r#"circuit and qasm"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1],["rz",1,0.5]]},"qasm":"qreg q[2];"}"#.to_string(),
                Err(r#"give either `circuit` or `qasm`, not both"#),
            ),
            (
                r#"no circuit"#,
                r#"{"op":"compile"}"#.to_string(),
                Err(r#"compile needs a `circuit` object or `qasm` string"#),
            ),
            (
                r#"qasm not a string"#,
                r#"{"op":"compile","qasm":5}"#.to_string(),
                Err(r#"`qasm` must be a string"#),
            ),
            (
                r#"qasm error"#,
                r#"{"op":"compile","qasm":"qreg q[1]; frobnicate q[0];"}"#.to_string(),
                Err(r#"unsupported qasm construct on line 1: frobnicate"#),
            ),
            (
                r#"qasm ok"#,
                r#"{"op":"compile","qasm":"OPENQASM 2.0;\nqreg q[2];\ncz q[0], q[1];"}"#.to_string(),
                Ok(r#"generic 8fbf82d59ce5bdeab186d3ed4e2fcd5e None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qasm too wide"#,
                r#"{"op":"compile","qasm":"qreg q[70000];"}"#.to_string(),
                Err(r#"`qasm` implies a size of 70000, over the limit of 65536"#),
            ),
            (
                r#"circuit not an object"#,
                r#"{"op":"compile","circuit":[2]}"#.to_string(),
                Err(r#"circuit needs integer `num_qubits`"#),
            ),
            (
                r#"circuit without num_qubits"#,
                r#"{"op":"compile","circuit":{"gates":[]}}"#.to_string(),
                Err(r#"circuit needs integer `num_qubits`"#),
            ),
            (
                r#"num_qubits negative"#,
                r#"{"op":"compile","circuit":{"num_qubits":-2,"gates":[]}}"#.to_string(),
                Err(r#"circuit needs integer `num_qubits`"#),
            ),
            (
                r#"circuit without gates"#,
                r#"{"op":"compile","circuit":{"num_qubits":2}}"#.to_string(),
                Err(r#"circuit needs a `gates` array"#),
            ),
            (
                r#"gates not an array"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":"cz 0 1"}}"#.to_string(),
                Err(r#"circuit needs a `gates` array"#),
            ),
            (
                r#"gates not an array, before num_qubits"#,
                r#"{"op":"compile","circuit":{"gates":"cz 0 1","num_qubits":2}}"#.to_string(),
                Err(r#"circuit needs a `gates` array"#),
            ),
            (
                r#"gate not an array"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":["cz"]}}"#.to_string(),
                Err(r#"schedule schema error: gate must be an array"#),
            ),
            (
                r#"gate arity"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["h",0,1]]}}"#.to_string(),
                Err(r#"schedule schema error: gate `h` expects 1 trailing element(s), got 2"#),
            ),
            (
                r#"gate qubit out of range"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,2]]}}"#.to_string(),
                Err(r#"qubit q2 out of range for circuit of 2 qubits"#),
            ),
            (
                r#"gate duplicate operands"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,0]]}}"#.to_string(),
                Err(r#"two-qubit gate uses qubit q0 for both operands"#),
            ),
            (
                r#"gate out of range, gates first"#,
                r#"{"op":"compile","circuit":{"gates":[["cz",0,2]],"num_qubits":2}}"#.to_string(),
                Err(r#"qubit q2 out of range for circuit of 2 qubits"#),
            ),
            (
                r#"num_qubits too wide"#,
                r#"{"op":"compile","circuit":{"num_qubits":70000,"gates":[]}}"#.to_string(),
                Err(r#"`num_qubits` implies a size of 70000, over the limit of 65536"#),
            ),
            (
                r#"qsim"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZII","IXXI"],"theta":0.5,"max_copies":2}"#.to_string(),
                Ok(r#"qsim 08bb86e490ed5f82a480be259f3926e7 Some(Qsim(QsimRouterOptions { max_copies: Some(2) })) cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qsim angles"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ","XX"],"angles":[0.25,-0.5]}"#.to_string(),
                Ok(r#"qsim 313739cfd3bb9264a75b4c6ae0944882 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qsim foreign"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":0.5,"qasm":"qreg q[2];"}"#.to_string(),
                Err(r#"`qasm` is not a `qsim` router field"#),
            ),
            (
                r#"qsim no strings"#,
                r#"{"op":"compile","router":"qsim","theta":0.5}"#.to_string(),
                Err(r#"qsim compile needs a `strings` array of Pauli strings"#),
            ),
            (
                r#"qsim strings entry"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ",1],"theta":0.5}"#.to_string(),
                Err(r#"`strings` entries must be strings"#),
            ),
            (
                r#"qsim bad pauli"#,
                r#"{"op":"compile","router":"qsim","strings":["ZQ"],"theta":0.5}"#.to_string(),
                Err(r#"invalid pauli character 'Q'"#),
            ),
            (
                r#"qsim theta and angles"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":0.5,"angles":[0.5]}"#.to_string(),
                Err(r#"give either `theta` or `angles`, not both"#),
            ),
            (
                r#"qsim theta string"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":"half"}"#.to_string(),
                Err(r#"`theta` must be a number"#),
            ),
            (
                r#"qsim angles not array"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"],"angles":0.5}"#.to_string(),
                Err(r#"`angles` must be an array of numbers"#),
            ),
            (
                r#"qsim angles length"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ","XX"],"angles":[0.5]}"#.to_string(),
                Err(r#"`angles` (1) must match `strings` (2)"#),
            ),
            (
                r#"qsim angles entry"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"],"angles":["x"]}"#.to_string(),
                Err(r#"`angles` must be numbers"#),
            ),
            (
                r#"qsim no angle"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"]}"#.to_string(),
                Err(r#"qsim compile needs `theta` or `angles`"#),
            ),
            (
                r#"qsim max_copies"#,
                r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":0.5,"max_copies":-1}"#.to_string(),
                Err(r#"`max_copies` must be a positive integer"#),
            ),
            (
                r#"qsim empty strings"#,
                r#"{"op":"compile","router":"qsim","strings":[],"theta":0.5}"#.to_string(),
                Ok(r#"qsim 4c59ece3fbe25d1621b535a9f805dae2 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qaoa"#,
                r#"{"op":"compile","router":"qaoa","qubits":4,"edges":[[0,1],[2,3]],"gamma":0.7,"beta":0.3,"anchors":2,"column_extension":false}"#.to_string(),
                Ok(r#"qaoa d7bde5139b3abf431d8a8a06559860ba Some(Qaoa(QaoaOptions { anchor_candidates: Some(2), column_extension: Some(false) })) cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qaoa gammas"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gammas":[0.1,0.2],"betas":[0.3,0.4]}"#.to_string(),
                Ok(r#"qaoa ff5a10449f9bd118d9eb08c9ec430177 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qaoa foreign"#,
                r#"{"op":"compile","router":"qaoa","qubits":2,"edges":[[0,1]],"gamma":0.7,"strings":["ZZ"]}"#.to_string(),
                Err(r#"`strings` is not a `qaoa` router field"#),
            ),
            (
                r#"qaoa qubits zero"#,
                r#"{"op":"compile","router":"qaoa","qubits":0,"edges":[],"gamma":0.7}"#.to_string(),
                Err(r#"qaoa compile needs a positive integer `qubits`"#),
            ),
            (
                r#"qaoa qubits too many"#,
                r#"{"op":"compile","router":"qaoa","qubits":70000,"edges":[],"gamma":0.7}"#.to_string(),
                Err(r#"`qubits` implies a size of 70000, over the limit of 65536"#),
            ),
            (
                r#"qaoa no edges"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"gamma":0.7}"#.to_string(),
                Err(r#"qaoa compile needs an `edges` array of [u, v] pairs"#),
            ),
            (
                r#"qaoa edge entry"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,"1"]],"gamma":0.7}"#.to_string(),
                Err(r#"`edges` entries must be pairs of qubit indices"#),
            ),
            (
                r#"qaoa edge short"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0]],"gamma":0.7}"#.to_string(),
                Err(r#"`edges` entries must be two-element arrays"#),
            ),
            (
                r#"qaoa edge scalar"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[5],"gamma":0.7}"#.to_string(),
                Err(r#"`edges` entries must be two-element arrays"#),
            ),
            (
                r#"qaoa gamma and gammas"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gamma":0.7,"gammas":[0.7]}"#.to_string(),
                Err(r#"give either `gamma` or `gammas`, not both"#),
            ),
            (
                r#"qaoa gamma string"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gamma":"x"}"#.to_string(),
                Err(r#"`gamma` must be a number"#),
            ),
            (
                r#"qaoa gamma null"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gamma":null}"#.to_string(),
                Err(r#"`gamma` must be a number"#),
            ),
            (
                r#"qaoa gammas not array"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gammas":1}"#.to_string(),
                Err(r#"`gammas` must be an array of numbers"#),
            ),
            (
                r#"qaoa gammas entry"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gammas":[null]}"#.to_string(),
                Err(r#"`gammas` must be numbers"#),
            ),
            (
                r#"qaoa no gamma"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]]}"#.to_string(),
                Err(r#"qaoa compile needs `gamma` or `gammas`"#),
            ),
            (
                r#"qaoa betas length"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gammas":[0.1,0.2],"betas":[0.3]}"#.to_string(),
                Ok(r#"qaoa ea672a2f3cc10dfa1de74e36b9db860f None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qaoa self edge"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[1,1]],"gamma":0.7}"#.to_string(),
                Ok(r#"qaoa a30b083b0491e529445546cf4c00edba None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qaoa column_extension"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gamma":0.7,"column_extension":1}"#.to_string(),
                Err(r#"`column_extension` must be a boolean"#),
            ),
            (
                r#"qaoa anchors"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gamma":0.7,"anchors":0}"#.to_string(),
                Err(r#"`anchors` must be a positive integer"#),
            ),
            (
                r#"qaoa anchors too many"#,
                r#"{"op":"compile","router":"qaoa","qubits":3,"edges":[[0,1]],"gamma":0.7,"anchors":70000}"#.to_string(),
                Err(r#"`anchors` implies a size of 70000, over the limit of 65536"#),
            ),
            (
                r#"qec"#,
                r#"{"op":"compile","router":"qec","distance":3,"rounds":2,"theta":0.5,"parallel_waves":false}"#.to_string(),
                Ok(r#"qec e806c831b79cfd31f4c070f5e3c98571 Some(Qec(QecOptions { parallel_waves: Some(false) })) cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qec minimal"#,
                r#"{"op":"compile","router":"qec","distance":3}"#.to_string(),
                Ok(r#"qec 02cef5dc2fb3d8068aa452b4619ed0e0 None cols=None deadline=None rid=None schedule=true"#),
            ),
            (
                r#"qec foreign"#,
                r#"{"op":"compile","router":"qec","distance":3,"qubits":4}"#.to_string(),
                Err(r#"`qubits` is not a `qec` router field"#),
            ),
            (
                r#"qec no distance"#,
                r#"{"op":"compile","router":"qec"}"#.to_string(),
                Err(r#"qec compile needs an integer `distance`"#),
            ),
            (
                r#"qec distance 1"#,
                r#"{"op":"compile","router":"qec","distance":1}"#.to_string(),
                Err(r#"qec distance must be at least 2, got 1"#),
            ),
            (
                r#"qec distance too large"#,
                r#"{"op":"compile","router":"qec","distance":300}"#.to_string(),
                Err(r#"`distance` implies a size of 90000, over the limit of 65536"#),
            ),
            (
                r#"qec rounds zero"#,
                r#"{"op":"compile","router":"qec","distance":3,"rounds":0}"#.to_string(),
                Err(r#"`rounds` must be a positive integer"#),
            ),
            (
                r#"qec rounds too many"#,
                r#"{"op":"compile","router":"qec","distance":100,"rounds":7}"#.to_string(),
                Err(r#"`rounds` implies a size of 70000, over the limit of 65536"#),
            ),
            (
                r#"qec theta string"#,
                r#"{"op":"compile","router":"qec","distance":3,"theta":"x"}"#.to_string(),
                Err(r#"`theta` must be a number"#),
            ),
            (
                r#"qec theta inf"#,
                r#"{"op":"compile","router":"qec","distance":3,"theta":1e999}"#.to_string(),
                Err(r#"qec theta must be finite"#),
            ),
            (
                r#"qec parallel_waves"#,
                r#"{"op":"compile","router":"qec","distance":3,"parallel_waves":"yes"}"#.to_string(),
                Err(r#"`parallel_waves` must be a boolean"#),
            ),
            (
                r#"json truncated"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,"#.to_string(),
                Err(r#"json error at byte 59: unexpected end of input"#),
            ),
            (
                r#"json trailing"#,
                r#"{"op":"ping"} x"#.to_string(),
                Err(r#"json error at byte 14: trailing characters"#),
            ),
            (
                r#"json bad escape"#,
                r#"{"op":"p\qing"}"#.to_string(),
                Err(r#"json error at byte 9: invalid escape"#),
            ),
            (
                r#"json trailing comma"#,
                r#"{"op":"ping",}"#.to_string(),
                Err(r#"json error at byte 13: expected string"#),
            ),
            (
                r#"json control character"#,
                "{\"op\":\"pi\u{1}ng\"}".to_string(),
                Err(r#"json error at byte 9: control character in string"#),
            ),
            (
                r#"json unpaired surrogate"#,
                r#"{"op":"\udc00"}"#.to_string(),
                Err(r#"json error at byte 12: unpaired surrogate"#),
            ),
            (
                r#"json missing colon"#,
                r#"{"op" "ping"}"#.to_string(),
                Err(r#"json error at byte 6: expected `:`"#),
            ),
            (
                r#"gate fault, then a json error later in the line"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["q"]]},"x":tru}"#.to_string(),
                Err(r#"json error at byte 63: invalid literal"#),
            ),
            (
                r#"gate fault, then a json error later in the gates"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["q"],["cz",0,1],[1,]]}}"#.to_string(),
                Err(r#"json error at byte 71: invalid number"#),
            ),
            (
                r#"gate fault under ping"#,
                r#"{"op":"ping","circuit":{"num_qubits":2,"gates":[["q"]]}}"#.to_string(),
                Ok(r#"Ping"#),
            ),
            (
                r#"gate fault under qsim"#,
                r#"{"op":"compile","router":"qsim","circuit":{"num_qubits":2,"gates":[["q"]]},"strings":["ZZ"],"theta":0.5}"#.to_string(),
                Err(r#"`circuit` is not a `qsim` router field"#),
            ),
            (
                r#"gate fault, request_id not a string"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["q"]]},"request_id":7}"#.to_string(),
                Err(r#"`request_id` must be a string"#),
            ),
            (
                r#"gate fault, unknown op"#,
                r#"{"circuit":{"num_qubits":2,"gates":[["q"]]},"op":"nope"}"#.to_string(),
                Err(r#"unknown op `nope`"#),
            ),
            (
                r#"gate fault, then stage_cap zero"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["q"]]},"stage_cap":0}"#.to_string(),
                Err(r#"`stage_cap` must be a positive integer"#),
            ),
            (
                r#"gate fault, then cols zero"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["q"]]},"cols":0}"#.to_string(),
                Err(r#"schedule schema error: unknown gate mnemonic `q`"#),
            ),
            (
                r#"gate fault, then too deep inside circuit"#,
                [r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["q"]],"x":"#, &r#"["#.repeat(127), r#"1"#, &r#"]"#.repeat(127), r#"}}"#].concat(),
                Err(r#"json error at byte 189: nesting deeper than 128 levels"#),
            ),
            (
                r#"num_qubits fault, then a json error"#,
                r#"{"op":"compile","circuit":{"num_qubits":-1,"gates":[]},"x":tru}"#.to_string(),
                Err(r#"json error at byte 59: invalid literal"#),
            ),
            (
                r#"gate fault before num_qubits, then num_qubits fault"#,
                r#"{"op":"compile","circuit":{"gates":[["q"]],"num_qubits":"x"}}"#.to_string(),
                Err(r#"circuit needs integer `num_qubits`"#),
            ),
            (
                r#"early gate out of range, then a gate fault, before num_qubits"#,
                r#"{"op":"compile","circuit":{"gates":[["cz",0,5],["q"]],"num_qubits":2}}"#.to_string(),
                Err(r#"qubit q5 out of range for circuit of 2 qubits"#),
            ),
            (
                r#"gate fault, then a second gate fault"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,5],["q"]]}}"#.to_string(),
                Err(r#"qubit q5 out of range for circuit of 2 qubits"#),
            ),
            (
                r#"gate fault before num_qubits, then no gates kept"#,
                r#"{"op":"compile","circuit":{"gates":[["q"]],"gates":[],"num_qubits":2}}"#.to_string(),
                Err(r#"schedule schema error: unknown gate mnemonic `q`"#),
            ),
            (
                r#"circuit null"#,
                r#"{"op":"compile","circuit":null}"#.to_string(),
                Err(r#"circuit needs integer `num_qubits`"#),
            ),
            (
                r#"circuit object under qec"#,
                r#"{"op":"compile","router":"qec","distance":3,"circuit":{"num_qubits":2,"gates":[["q"]]}}"#.to_string(),
                Err(r#"`circuit` is not a `qec` router field"#),
            ),
            (
                r#"gate fault and qasm"#,
                r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["q"]]},"qasm":"qreg q[2];"}"#.to_string(),
                Err(r#"give either `circuit` or `qasm`, not both"#),
            ),
            (
                r#"gate fault, circuit too wide"#,
                r#"{"op":"compile","circuit":{"num_qubits":70000,"gates":[["q"]]}}"#.to_string(),
                Err(r#"schedule schema error: unknown gate mnemonic `q`"#),
            ),
            (
                r#"circuit not an object, then a json error"#,
                r#"{"op":"compile","circuit":[["q"]],"x":tru}"#.to_string(),
                Err(r#"json error at byte 38: invalid literal"#),
            ),
            (
                r#"gate fault under auto with strings"#,
                r#"{"op":"compile","router":"auto","circuit":{"num_qubits":2,"gates":[["q"]]},"strings":["ZZ"]}"#.to_string(),
                Err(r#"ambiguous `auto` compile: `circuit` implies the `generic` router but `strings` implies `qsim`"#),
            ),
        ];
        let mut wrong = Vec::new();
        for (what, line, expected) in rows {
            let got = parse_request(&line).map(|r| summary(&r));
            if got.as_deref().map_err(String::as_str) != expected {
                wrong.push(format!("{what}: got {got:?}, expected {expected:?}"));
            }
        }
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
        // A line that is not JSON gets its JSON error, not the complaint
        // its early fields would earn.
        let svc = service();
        let doc =
            json::parse(&handle_line(&svc, r#"{"op":5,"request_id":7,"circuit":{]"#).response)
                .unwrap();
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("json error at byte 34: expected string")
        );
    }

    #[test]
    fn compile_stats_shutdown_flow() {
        let svc = service();
        let line = r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]}}"#;
        let first = handle_line(&svc, line);
        assert!(first.response.contains("\"cache\":\"miss\""));
        let doc = json::parse(&first.response).unwrap();
        assert_eq!(
            doc.get("schedule")
                .and_then(|s| s.get("format"))
                .and_then(Value::as_str),
            Some("qpilot.schedule/v1")
        );
        let second = handle_line(&svc, line);
        assert!(second.response.contains("\"cache\":\"hit\""));
        let stats = handle_line(&svc, "{\"op\":\"stats\"}");
        let sdoc = json::parse(&stats.response).unwrap();
        assert_eq!(sdoc.get("hits").and_then(Value::as_u64), Some(1));
        assert_eq!(sdoc.get("compiles").and_then(Value::as_u64), Some(1));
        let bye = handle_line(&svc, "{\"op\":\"shutdown\"}");
        assert!(bye.shutdown);
    }

    #[test]
    fn each_router_tag_compiles_with_distinct_fingerprints() {
        let svc = service();
        let lines = [
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["rzz",0,1,0.5]]}}"#,
            r#"{"op":"compile","router":"qsim","strings":["ZZ"],"theta":0.5}"#,
            r#"{"op":"compile","router":"qaoa","qubits":2,"edges":[[0,1]],"gamma":0.5}"#,
            r#"{"op":"compile","router":"qec","distance":2,"theta":0.5}"#,
        ];
        let mut fingerprints = Vec::new();
        for (line, router) in lines.iter().zip(["generic", "qsim", "qaoa", "qec"]) {
            let handled = handle_line(&svc, line);
            let doc = json::parse(&handled.response).unwrap();
            assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true), "{line}");
            assert_eq!(doc.get("router").and_then(Value::as_str), Some(router));
            assert_eq!(doc.get("cache").and_then(Value::as_str), Some("miss"));
            assert_eq!(
                doc.get("schedule")
                    .and_then(|s| s.get("format"))
                    .and_then(Value::as_str),
                Some("qpilot.schedule/v1")
            );
            fingerprints.push(
                doc.get("fingerprint")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        fingerprints.sort();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), 4, "no cross-router cache collisions");
        assert_eq!(svc.stats().compiles, 4);
    }

    #[test]
    fn schedule_can_be_omitted() {
        let svc = service();
        let line =
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]},"schedule":false}"#;
        let handled = handle_line(&svc, line);
        let doc = json::parse(&handled.response).unwrap();
        assert!(doc.get("schedule").is_none());
        assert!(doc.get("fingerprint").is_some());
    }

    #[test]
    fn deadline_ms_parses_and_bad_values_are_rejected() {
        let line =
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]},"deadline_ms":150}"#;
        match parse_request(line).unwrap() {
            Request::Compile { request, .. } => assert_eq!(request.deadline_ms, Some(150)),
            other => panic!("unexpected parse: {other:?}"),
        }
        let bad = r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[]},"deadline_ms":"soon"}"#;
        assert!(parse_request(bad).is_err());
    }

    #[test]
    fn service_errors_carry_machine_readable_markers() {
        let overloaded =
            render_service_error(&ServiceError::Overloaded { retry_after_ms: 40 }, "r-t1");
        let doc = json::parse(&overloaded).unwrap();
        assert_eq!(doc.get("retry").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("retry_after_ms").and_then(Value::as_u64), Some(40));
        assert_eq!(doc.get("request_id").and_then(Value::as_str), Some("r-t1"));
        assert_eq!(doc.get("path").and_then(Value::as_str), Some("shed"));
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("service overloaded: compile queue is full, retry later"),
            "the overload message stays wire-stable"
        );

        let deadline = render_service_error(&ServiceError::Deadline { deadline_ms: 25 }, "r-t2");
        let doc = json::parse(&deadline).unwrap();
        assert_eq!(doc.get("deadline").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("path").and_then(Value::as_str), Some("error"));
        assert!(doc.get("retry").is_none());

        let draining = render_service_error(&ServiceError::ShuttingDown, "r-t3");
        let doc = json::parse(&draining).unwrap();
        assert_eq!(doc.get("retry").and_then(Value::as_bool), Some(true));
        assert!(doc.get("retry_after_ms").is_none());
    }

    #[test]
    fn every_reply_echoes_a_request_id() {
        let svc = service();
        // Client-supplied ids come back verbatim, on every op.
        for (line, op) in [
            (r#"{"op":"ping","request_id":"cli-1"}"#, "pong"),
            (r#"{"op":"stats","request_id":"cli-1"}"#, "stats"),
            (
                r#"{"op":"store-stats","request_id":"cli-1"}"#,
                "store-stats",
            ),
            (r#"{"op":"metrics","request_id":"cli-1"}"#, "metrics"),
            (
                r#"{"op":"compile","request_id":"cli-1","circuit":{"num_qubits":2,"gates":[["cz",0,1]]}}"#,
                "compile",
            ),
        ] {
            let doc = json::parse(&handle_line(&svc, line).response).unwrap();
            assert_eq!(doc.get("op").and_then(Value::as_str), Some(op), "{line}");
            assert_eq!(
                doc.get("request_id").and_then(Value::as_str),
                Some("cli-1"),
                "{line}"
            );
        }
        // Absent ids get a daemon-assigned `r-<hex>`; errors echo too.
        for line in ["{\"op\":\"ping\"}", "not json", "{\"op\":\"compile\"}"] {
            let doc = json::parse(&handle_line(&svc, line).response).unwrap();
            let rid = doc.get("request_id").and_then(Value::as_str).unwrap();
            assert!(rid.starts_with("r-"), "{line} -> {rid}");
        }
        // A client id survives even when the rest of the request fails.
        let bad = handle_line(&svc, r#"{"op":"compile","request_id":"cli-err"}"#);
        let doc = json::parse(&bad.response).unwrap();
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            doc.get("request_id").and_then(Value::as_str),
            Some("cli-err")
        );
        assert_eq!(doc.get("path").and_then(Value::as_str), Some("error"));
        // Oversized or mistyped ids are rejected loudly.
        let long = format!(
            r#"{{"op":"ping","request_id":"{}"}}"#,
            "x".repeat(MAX_REQUEST_ID_BYTES + 1)
        );
        assert!(handle_line(&svc, &long)
            .response
            .starts_with("{\"ok\":false"));
        assert!(handle_line(&svc, r#"{"op":"ping","request_id":7}"#)
            .response
            .starts_with("{\"ok\":false"));
    }

    #[test]
    fn compile_replies_carry_the_serving_path() {
        let svc = service();
        let line = r#"{"op":"compile","circuit":{"num_qubits":3,"gates":[["cz",0,1],["cz",1,2]]}}"#;
        let cold = json::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(cold.get("path").and_then(Value::as_str), Some("miss"));
        assert_eq!(cold.get("cache").and_then(Value::as_str), Some("miss"));
        let warm = json::parse(&handle_line(&svc, line).response).unwrap();
        assert_eq!(warm.get("path").and_then(Value::as_str), Some("hit"));
        assert_eq!(warm.get("cache").and_then(Value::as_str), Some("hit"));
    }

    #[test]
    fn metrics_op_returns_the_exposition() {
        let svc = service();
        let line = r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]}}"#;
        handle_line(&svc, line);
        let doc = json::parse(&handle_line(&svc, r#"{"op":"metrics"}"#).response).unwrap();
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            doc.get("content_type").and_then(Value::as_str),
            Some(crate::metrics::EXPOSITION_CONTENT_TYPE)
        );
        let text = doc.get("exposition").and_then(Value::as_str).unwrap();
        assert!(text.contains("# TYPE qpilot_requests_total counter"));
        assert!(text.contains("# TYPE qpilot_compile_seconds summary"));
        assert!(text.contains("qpilot_route_stage_seconds"));
        // The compile above left a nonzero compile histogram.
        assert!(!text.contains("qpilot_compile_seconds_count 0"));
    }

    #[test]
    fn stats_reply_includes_latency_summaries() {
        let svc = service();
        let line = r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]}}"#;
        handle_line(&svc, line);
        let doc = json::parse(&handle_line(&svc, r#"{"op":"stats"}"#).response).unwrap();
        assert!(doc.get("p90_compile_ms").and_then(Value::as_f64).is_some());
        let latency = doc.get("latency").expect("latency object");
        // The compile above was a cache miss, so the `miss` path has
        // recorded at least one sample and must be present.
        let miss = latency.get("miss").expect("miss row after a compile");
        assert!(miss.get("count").and_then(Value::as_u64).unwrap_or(0) > 0);
        // Every row that *is* present carries a nonzero count plus the
        // full percentile set — zero-count paths are omitted outright,
        // never rendered as a fake 0 ms summary. (The path histograms
        // are process-wide, so which other rows appear depends on what
        // tests ran before this one; only the invariant is asserted.)
        for path in ["hit", "miss", "coalesced", "shed", "error"] {
            let Some(row) = latency.get(path) else {
                continue;
            };
            assert!(
                row.get("count").and_then(Value::as_u64).unwrap_or(0) > 0,
                "zero-count row `{path}` should have been omitted"
            );
            for key in ["p50_ms", "p90_ms", "p99_ms"] {
                assert!(
                    row.get(key).and_then(Value::as_f64).is_some(),
                    "{path}.{key}"
                );
            }
        }
    }

    #[test]
    fn stats_expose_resilience_counters() {
        let svc = service();
        let stats = handle_line(&svc, "{\"op\":\"stats\"}");
        let doc = json::parse(&stats.response).unwrap();
        for key in ["coalesced", "shed", "deadline_misses"] {
            assert_eq!(doc.get(key).and_then(Value::as_u64), Some(0), "{key}");
        }
        assert_eq!(doc.get("draining").and_then(Value::as_bool), Some(false));
        let store = handle_line(&svc, "{\"op\":\"store-stats\"}");
        let doc = json::parse(&store.response).unwrap();
        for key in ["entries", "bytes"] {
            assert_eq!(doc.get(key).and_then(Value::as_u64), Some(0), "{key}");
        }
    }

    #[test]
    fn an_impossible_deadline_gets_a_deadline_error_line() {
        let svc = service();
        let line =
            r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]},"deadline_ms":0}"#;
        let handled = handle_line(&svc, line);
        let doc = json::parse(&handled.response).unwrap();
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("deadline").and_then(Value::as_bool), Some(true));
        // The daemon stays healthy for the next request.
        let retry = r#"{"op":"compile","circuit":{"num_qubits":2,"gates":[["cz",0,1]]}}"#;
        assert!(handle_line(&svc, retry)
            .response
            .starts_with("{\"ok\":true"));
    }

    #[test]
    fn ping_pongs() {
        let svc = service();
        assert_eq!(
            handle_line(&svc, r#"{"op":"ping","request_id":"p1"}"#).response,
            "{\"ok\":true,\"op\":\"pong\",\"request_id\":\"p1\"}"
        );
    }
}
