//! JSON serialisation of compiled [`Schedule`]s (`qpilot.schedule/v1`).
//!
//! The compilation service caches and ships schedules as JSON; this
//! module provides the writer/parser pair. The format is *canonical*:
//! [`schedule_to_json`] emits no whitespace, fixed key order, and floats
//! in Rust's shortest round-trip decimal form, so
//! `schedule_to_json ∘ schedule_from_json` is the identity on bytes and
//! byte equality of two serialised schedules is schedule equality.
//!
//! Layout:
//!
//! ```json
//! {"format":"qpilot.schedule/v1","num_data":4,"num_ancillas":1,
//!  "aod_rows":2,"aod_cols":2,
//!  "stages":[
//!    {"kind":"raman","gates":[["h",2],["rz",0,0.5]]},
//!    {"kind":"transfer","ops":[[0,1,1,true]]},
//!    {"kind":"move","row_y":[0.5,10],"col_x":[0.5,10]},
//!    {"kind":"rydberg","ops":[[["d",0],["a",0],"cz"]]}
//!  ]}
//! ```
//!
//! Gates use the compact `[mnemonic, operands..., angle?]` encoding (the
//! arity disambiguates; `rzz` carries `[a, b, theta]`), transfer ops are
//! `[ancilla, row, col, load]`, and Rydberg ops are `[atom, atom, kind]`
//! with atoms `["d", qubit]` / `["a", ancilla]` and kind `"cz"`,
//! `["cx", target_b]` or `["zz", theta]`.
//!
//! The writer appends every number in place into one pre-sized buffer:
//! integers digit by digit, and floats through a [`FloatTable`], which
//! formats a value the first time it appears in a document and copies
//! that text for each repeat (a 100-qubit schedule holds ~31k AOD
//! coordinates drawn from about a hundred values). The bytes are those
//! of [`json::fmt_f64`].
//!
//! The parser, [`schedule_from_json`], decodes without a tree: one pass
//! of a [`json::Reader`] straight into a [`ScheduleBuilder`], so a
//! 0.5 MB document holds well under twice its size while it decodes.
//! It accepts exactly what it writes back: every angle and every Move
//! coordinate must be finite, since [`schedule_to_json`] cannot write a
//! non-finite number. [`read_gate`] is the one gate decoder; the service
//! protocol's circuits use it too.

use std::fmt::{self, Write as _};

use qpilot_circuit::{Gate, Qubit};

use crate::json::{self, Head, Item, Kind, Reader};
use crate::schedule::{
    AncillaId, AtomRef, RydbergKind, RydbergOp, Schedule, ScheduleBuilder, StageRef, TransferOp,
};

/// The format tag written into and required from every document.
pub const SCHEDULE_FORMAT: &str = "qpilot.schedule/v1";

/// Error from [`schedule_from_json`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The document is not valid JSON.
    Json(json::JsonError),
    /// The document is JSON but not a `qpilot.schedule/v1` schedule.
    Schema(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(e) => write!(f, "{e}"),
            WireError::Schema(m) => write!(f, "schedule schema error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<json::JsonError> for WireError {
    fn from(e: json::JsonError) -> Self {
        WireError::Json(e)
    }
}

fn schema(m: impl Into<String>) -> WireError {
    WireError::Schema(m.into())
}

/// Serialises a schedule canonically.
///
/// # Panics
///
/// Panics if the schedule contains non-finite floats (no router emits
/// them; the debug validator would reject such a schedule anyway).
pub fn schedule_to_json(schedule: &Schedule) -> String {
    let mut out = String::with_capacity(estimated_len(schedule));
    let mut floats = FloatTable::default();
    out.push_str("{\"format\":\"");
    out.push_str(SCHEDULE_FORMAT);
    out.push_str("\",\"num_data\":");
    push_uint(&mut out, schedule.num_data.into());
    out.push_str(",\"num_ancillas\":");
    push_uint(&mut out, schedule.num_ancillas.into());
    out.push_str(",\"aod_rows\":");
    push_uint(&mut out, schedule.aod_rows as u64);
    out.push_str(",\"aod_cols\":");
    push_uint(&mut out, schedule.aod_cols as u64);
    out.push_str(",\"stages\":[");
    for (i, stage) in schedule.stages().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_stage(&mut out, &mut floats, stage);
    }
    out.push_str("]}");
    out
}

/// Bytes to reserve for `schedule`'s document: a little more than the
/// paper's 100-qubit random and qsim schedules take per stage and per
/// pooled element, so their buffer never regrows. Documents whose gates
/// carry many long angles (QFT, QAOA) may regrow once.
fn estimated_len(schedule: &Schedule) -> usize {
    let [gates, transfers, coords, rydberg] = schedule.pool_lens();
    64 + 30 * schedule.num_stages() + 10 * gates + 16 * transfers + 5 * coords + 30 * rydberg
}

/// Appends the decimal digits of `v`.
fn push_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Slots in a [`FloatTable`]; a power of two, so the slot index is the
/// top bits of a multiplicative hash.
const FLOAT_SLOTS: usize = 256;

/// The text of each float already written into one output buffer, so a
/// repeated value is copied from there rather than formatted again.
///
/// Direct-mapped and keyed by bit pattern: `0.0` and `-0.0` never share
/// text, and a collision overwrites the slot and costs one re-format. A
/// table serves a single buffer that only grows: its slots hold offsets
/// into that buffer, so make one table per document.
pub struct FloatTable {
    /// `(bits, start, len)` of the text at `out[start..start + len]`;
    /// `len == 0` marks an empty slot (no float's text is empty).
    slots: [(u64, u32, u32); FLOAT_SLOTS],
}

impl Default for FloatTable {
    fn default() -> Self {
        FloatTable {
            slots: [(0, 0, 0); FLOAT_SLOTS],
        }
    }
}

impl FloatTable {
    /// Appends `v` to `out` exactly as [`json::fmt_f64`] formats it.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite `v`, as [`json::fmt_f64`] does.
    fn push(&mut self, out: &mut String, v: f64) {
        let bits = v.to_bits();
        // Fold the sign, exponent and leading mantissa bits, where short
        // decimals differ most, into the low half, then keep the top bits
        // of a Fibonacci multiply.
        let hash = (bits ^ (bits >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = &mut self.slots[(hash >> (64 - FLOAT_SLOTS.trailing_zeros())) as usize];
        if slot.2 != 0 && slot.0 == bits {
            let start = slot.1 as usize;
            out.extend_from_within(start..start + slot.2 as usize);
            return;
        }
        assert!(v.is_finite(), "cannot serialise non-finite number to JSON");
        let start = out.len();
        write!(out, "{v}").expect("writing to a String cannot fail");
        if let (Ok(start), Ok(len)) = (u32::try_from(start), u32::try_from(out.len() - start)) {
            *slot = (bits, start, len);
        }
    }
}

/// Writes one stage in the `qpilot.schedule/v1` encoding.
fn write_stage(out: &mut String, floats: &mut FloatTable, stage: StageRef<'_>) {
    match stage {
        StageRef::Raman(gates) => {
            out.push_str("{\"kind\":\"raman\",\"gates\":[");
            for (i, g) in gates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_gate(out, floats, g);
            }
            out.push_str("]}");
        }
        StageRef::Transfer(ops) => {
            out.push_str("{\"kind\":\"transfer\",\"ops\":[");
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                push_uint(out, op.ancilla.0.into());
                out.push(',');
                push_uint(out, op.row as u64);
                out.push(',');
                push_uint(out, op.col as u64);
                out.push(',');
                out.push_str(if op.load { "true" } else { "false" });
                out.push(']');
            }
            out.push_str("]}");
        }
        StageRef::Move { row_y, col_x } => {
            out.push_str("{\"kind\":\"move\",\"row_y\":[");
            for (i, y) in row_y.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                floats.push(out, *y);
            }
            out.push_str("],\"col_x\":[");
            for (i, x) in col_x.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                floats.push(out, *x);
            }
            out.push_str("]}");
        }
        StageRef::Rydberg(ops) => {
            out.push_str("{\"kind\":\"rydberg\",\"ops\":[");
            for (i, op) in ops.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                write_atom(out, op.a);
                out.push(',');
                write_atom(out, op.b);
                out.push(',');
                match op.kind {
                    RydbergKind::Cz => out.push_str("\"cz\""),
                    RydbergKind::CxInto { target_b } => {
                        out.push_str("[\"cx\",");
                        out.push_str(if target_b { "true" } else { "false" });
                        out.push(']');
                    }
                    RydbergKind::Zz(theta) => {
                        out.push_str("[\"zz\",");
                        floats.push(out, theta);
                        out.push(']');
                    }
                }
                out.push(']');
            }
            out.push_str("]}");
        }
    }
}

fn write_atom(out: &mut String, atom: AtomRef) {
    match atom {
        AtomRef::Data(q) => {
            out.push_str("[\"d\",");
            push_uint(out, q.into());
            out.push(']');
        }
        AtomRef::Ancilla(a) => {
            out.push_str("[\"a\",");
            push_uint(out, a.0.into());
            out.push(']');
        }
    }
}

/// Serialises one gate in the compact wire encoding (shared with the
/// service protocol's circuit representation). `floats` must be the
/// table of the document `out` holds.
pub fn write_gate(out: &mut String, floats: &mut FloatTable, g: &Gate) {
    out.push_str("[\"");
    out.push_str(g.mnemonic());
    out.push('"');
    match *g {
        Gate::Rx(q, t) | Gate::Ry(q, t) | Gate::Rz(q, t) => {
            out.push(',');
            push_uint(out, q.raw().into());
            out.push(',');
            floats.push(out, t);
        }
        Gate::Zz(a, b, t) => {
            out.push(',');
            push_uint(out, a.raw().into());
            out.push(',');
            push_uint(out, b.raw().into());
            out.push(',');
            floats.push(out, t);
        }
        Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
            out.push(',');
            push_uint(out, a.raw().into());
            out.push(',');
            push_uint(out, b.raw().into());
        }
        _ => {
            let q = g.operands().into_iter().next().expect("1Q operand");
            out.push(',');
            push_uint(out, q.raw().into());
        }
    }
    out.push(']');
}

/// Reads one gate in the compact wire encoding (shared with the service
/// protocol's circuit representation).
///
/// # Errors
///
/// [`WireError::Json`] on malformed JSON, [`WireError::Schema`] on a
/// value that is not a gate.
pub fn read_gate(r: &mut Reader<'_>) -> Result<Gate, WireError> {
    let Head::Arr(len, head) = r.head::<4>()? else {
        return Err(schema("gate must be an array"));
    };
    let items = &head[..len.min(head.len())];
    let name = items
        .first()
        .and_then(Item::as_str)
        .ok_or_else(|| schema("gate array must start with a mnemonic"))?;
    let qubit = |i: usize| -> Result<Qubit, WireError> {
        items
            .get(i)
            .and_then(Item::as_u32)
            .map(Qubit::new)
            .ok_or_else(|| schema(format!("gate `{name}` operand {i} must be a qubit index")))
    };
    let angle = |i: usize| -> Result<f64, WireError> {
        items
            .get(i)
            .and_then(Item::as_f64)
            // Non-finite angles (JSON `1e999` overflows to inf) must be
            // rejected here: they would route fine and then panic the
            // canonical serialiser — a remote crash vector for the
            // service's worker threads.
            .filter(|t| t.is_finite())
            .ok_or_else(|| schema(format!("gate `{name}` needs a finite angle at {i}")))
    };
    let arity = |n: usize| -> Result<(), WireError> {
        if len != n + 1 {
            return Err(schema(format!(
                "gate `{name}` expects {n} trailing element(s), got {}",
                len - 1
            )));
        }
        Ok(())
    };
    Ok(match name {
        "h" => {
            arity(1)?;
            Gate::H(qubit(1)?)
        }
        "x" => {
            arity(1)?;
            Gate::X(qubit(1)?)
        }
        "y" => {
            arity(1)?;
            Gate::Y(qubit(1)?)
        }
        "z" => {
            arity(1)?;
            Gate::Z(qubit(1)?)
        }
        "s" => {
            arity(1)?;
            Gate::S(qubit(1)?)
        }
        "sdg" => {
            arity(1)?;
            Gate::Sdg(qubit(1)?)
        }
        "t" => {
            arity(1)?;
            Gate::T(qubit(1)?)
        }
        "tdg" => {
            arity(1)?;
            Gate::Tdg(qubit(1)?)
        }
        "rx" => {
            arity(2)?;
            Gate::Rx(qubit(1)?, angle(2)?)
        }
        "ry" => {
            arity(2)?;
            Gate::Ry(qubit(1)?, angle(2)?)
        }
        "rz" => {
            arity(2)?;
            Gate::Rz(qubit(1)?, angle(2)?)
        }
        "cx" => {
            arity(2)?;
            Gate::Cx(qubit(1)?, qubit(2)?)
        }
        "cz" => {
            arity(2)?;
            Gate::Cz(qubit(1)?, qubit(2)?)
        }
        "swap" => {
            arity(2)?;
            Gate::Swap(qubit(1)?, qubit(2)?)
        }
        "rzz" => {
            arity(3)?;
            Gate::Zz(qubit(1)?, qubit(2)?, angle(3)?)
        }
        other => return Err(schema(format!("unknown gate mnemonic `{other}`"))),
    })
}

/// Parses a `qpilot.schedule/v1` document back into a [`Schedule`].
///
/// The decode is one pass over a [`Reader`] straight into a
/// [`ScheduleBuilder`], with no tree and no collection per element. It
/// reads what [`json::parse`] and `Value::get` would: keys in any order,
/// the first of duplicate keys, unknown keys validated and skipped. The
/// header is applied when the document closes, so `stages` may come
/// first, and a stage payload that comes before its `kind` is decoded
/// from its remembered text. A document with a schema fault is read once
/// more, without decoding, so that of several faults it reports the
/// first in check order: a JSON error, then a header fault, then the
/// first faulty stage. A non-finite Move coordinate is a schema
/// error, as a non-finite angle is: [`schedule_to_json`] could not
/// write it back.
///
/// # Errors
///
/// [`WireError::Json`] on malformed JSON, [`WireError::Schema`] on a
/// missing/incompatible format tag or structural mismatch.
pub fn schedule_from_json(src: &str) -> Result<Schedule, WireError> {
    let mut builder = ScheduleBuilder::new(0, 0, 0);
    match read_document(src, Some(&mut builder)) {
        Ok((num_data, aod_rows, aod_cols, num_ancillas)) => {
            let mut schedule = builder.finish();
            schedule.num_data = num_data;
            schedule.aod_rows = aod_rows;
            schedule.aod_cols = aod_cols;
            schedule.num_ancillas = num_ancillas;
            Ok(schedule)
        }
        // The decode stops at the first fault it reads, but the checks
        // run in a fixed order: the JSON, the header, then the stages. A
        // validating pass finds any fault an earlier check would report.
        Err(WireError::Schema(fault)) => {
            read_document(src, None)?;
            Err(WireError::Schema(fault))
        }
        Err(json) => Err(json),
    }
}

/// The header keys, in the order the checks read them.
const HEADER: [&str; 5] = ["format", "num_data", "aod_rows", "aod_cols", "num_ancillas"];

/// Reads a whole document and checks its header: `num_data`,
/// `aod_rows`, `aod_cols` and `num_ancillas`. The stages are decoded
/// into `builder`, or with none only validated and skipped.
fn read_document(
    src: &str,
    mut builder: Option<&mut ScheduleBuilder>,
) -> Result<(u32, usize, usize, u32), WireError> {
    let mut r = Reader::new(src);
    let mut header: [Option<Item<'_>>; 5] = Default::default();
    let mut stages = None;
    if r.peek()? == Kind::Obj {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            let slot = HEADER
                .iter()
                .position(|k| key == *k)
                .map(|i| &mut header[i]);
            match slot {
                Some(slot @ None) => *slot = Some(r.item()?),
                None if key == "stages" && stages.is_none() => {
                    stages = Some(match builder.as_deref_mut() {
                        Some(builder) => read_stages(&mut r, builder)?,
                        None => r.skip()?.starts_with('['),
                    });
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
    let [format, num_data, aod_rows, aod_cols, num_ancillas] = header;
    let format = format
        .as_ref()
        .and_then(Item::as_str)
        .ok_or_else(|| schema("missing `format` tag"))?;
    if format != SCHEDULE_FORMAT {
        return Err(schema(format!(
            "format `{format}` is not `{SCHEDULE_FORMAT}`"
        )));
    }
    let missing = |k: &str| schema(format!("missing integer field `{k}`"));
    let num_data = num_data.as_ref().and_then(Item::as_u32);
    let num_data = num_data.ok_or_else(|| missing("num_data"))?;
    let aod_rows = aod_rows.as_ref().and_then(Item::as_usize);
    let aod_rows = aod_rows.ok_or_else(|| missing("aod_rows"))?;
    let aod_cols = aod_cols.as_ref().and_then(Item::as_usize);
    let aod_cols = aod_cols.ok_or_else(|| missing("aod_cols"))?;
    let num_ancillas = num_ancillas.as_ref().and_then(Item::as_u32);
    let num_ancillas = num_ancillas.ok_or_else(|| missing("num_ancillas"))?;
    if stages != Some(true) {
        return Err(schema("missing `stages` array"));
    }
    Ok((num_data, aod_rows, aod_cols, num_ancillas))
}

/// Decodes the `stages` array into `builder`: `false`, with the value
/// validated and skipped, when it is not an array.
fn read_stages(r: &mut Reader<'_>, builder: &mut ScheduleBuilder) -> Result<bool, WireError> {
    if r.peek()? != Kind::Arr {
        r.skip()?;
        return Ok(false);
    }
    r.begin_array()?;
    while r.next_element()? {
        read_stage(r, builder)?;
    }
    Ok(true)
}

/// A stage's `kind` tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    Raman,
    Transfer,
    Move,
    Rydberg,
}

impl StageKind {
    fn parse(item: &Item<'_>) -> Result<StageKind, WireError> {
        match item
            .as_str()
            .ok_or_else(|| schema("stage needs a `kind`"))?
        {
            "raman" => Ok(StageKind::Raman),
            "transfer" => Ok(StageKind::Transfer),
            "move" => Ok(StageKind::Move),
            "rydberg" => Ok(StageKind::Rydberg),
            other => Err(schema(format!("unknown stage kind `{other}`"))),
        }
    }

    fn name(self) -> &'static str {
        match self {
            StageKind::Raman => "raman",
            StageKind::Transfer => "transfer",
            StageKind::Move => "move",
            StageKind::Rydberg => "rydberg",
        }
    }

    /// The payload keys, in the order they are decoded.
    fn keys(self) -> &'static [&'static str] {
        match self {
            StageKind::Raman => &["gates"],
            StageKind::Transfer | StageKind::Rydberg => &["ops"],
            StageKind::Move => &["row_y", "col_x"],
        }
    }
}

/// Every key that is a payload of some stage kind.
const PAYLOAD_KEYS: [&str; 4] = ["gates", "ops", "row_y", "col_x"];

/// The first occurrence of a payload key in a stage object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload<'a> {
    Absent,
    /// Seen before the stage could decode it: its validated text.
    Pending(&'a str),
    Decoded,
}

/// Decodes one stage object into `builder`. A payload is decoded where it
/// stands when the stage's `kind` came first and every payload the kind
/// decodes before it is done; otherwise its text is kept and decoded
/// when the object closes.
fn read_stage<'a>(r: &mut Reader<'a>, builder: &mut ScheduleBuilder) -> Result<(), WireError> {
    if r.peek()? != Kind::Obj {
        r.skip()?;
        return Err(schema("stage needs a `kind`"));
    }
    r.begin_object()?;
    let start = builder.pool_lens()[2];
    let (mut kind, mut rows) = (None, 0);
    let mut payload = [Payload::Absent; PAYLOAD_KEYS.len()];
    let mut decode = |r: &mut Reader<'a>, kind: StageKind, key: &str| {
        let n = read_payload(r, builder, kind, key)?;
        if key == "row_y" {
            rows = n;
        }
        Ok::<_, WireError>(Payload::Decoded)
    };
    while let Some(key) = r.next_key()? {
        if key == "kind" && kind.is_none() {
            kind = Some(StageKind::parse(&r.item()?)?);
            continue;
        }
        let slot = PAYLOAD_KEYS.iter().position(|k| key == *k);
        let Some(i) = slot.filter(|&i| payload[i] == Payload::Absent) else {
            r.skip()?;
            continue;
        };
        // The kind's next payload still to decode, if this is it.
        let next = kind.filter(|kind| {
            let undecoded = kind
                .keys()
                .iter()
                .find(|k| payload[payload_index(k)] != Payload::Decoded);
            undecoded == Some(&PAYLOAD_KEYS[i])
        });
        payload[i] = match next {
            Some(kind) => decode(r, kind, PAYLOAD_KEYS[i])?,
            None => Payload::Pending(r.skip()?),
        };
    }
    let kind = kind.ok_or_else(|| schema("stage needs a `kind`"))?;
    for key in kind.keys() {
        match payload[payload_index(key)] {
            Payload::Decoded => {}
            Payload::Pending(text) => {
                decode(&mut Reader::new(text), kind, key)?;
            }
            Payload::Absent => {
                return Err(schema(format!("{} stage needs `{key}`", kind.name())));
            }
        }
    }
    if kind == StageKind::Move {
        builder.close_move(start, rows);
    }
    Ok(())
}

fn payload_index(key: &str) -> usize {
    PAYLOAD_KEYS
        .iter()
        .position(|k| *k == key)
        .expect("a payload key")
}

/// Decodes payload `key` of a `kind` stage into `builder` and returns how
/// many elements it held. Raman gates and Transfer and Rydberg ops make
/// their stage; Move coordinates go into the pool, and the caller closes
/// the stage.
fn read_payload(
    r: &mut Reader<'_>,
    builder: &mut ScheduleBuilder,
    kind: StageKind,
    key: &str,
) -> Result<usize, WireError> {
    let n = match kind {
        StageKind::Raman => read_array(r, read_gate, |gates| {
            builder.raman(gates);
        }),
        StageKind::Transfer => read_array(r, read_transfer_op, |ops| {
            builder.transfer(ops);
        }),
        StageKind::Rydberg => read_array(r, read_rydberg_op, |ops| {
            builder.rydberg(ops);
        }),
        StageKind::Move => read_array(r, |r| read_coord(r, key), |xs| builder.extend_coords(xs)),
    }?;
    n.ok_or_else(|| schema(format!("{} stage needs `{key}`", kind.name())))
}

/// Decodes the array `r` is at with `read`, handing the elements to
/// `push` as an iterator that ends at the array's close or at the first
/// error, and returns how many it decoded. `None`, with the value
/// validated and skipped, when it is not an array.
fn read_array<'r, 'a, T, R>(
    r: &'r mut Reader<'a>,
    read: R,
    push: impl FnOnce(&mut Elements<'r, 'a, R>),
) -> Result<Option<usize>, WireError>
where
    R: FnMut(&mut Reader<'a>) -> Result<T, WireError>,
{
    if r.peek()? != Kind::Arr {
        r.skip()?;
        return Ok(None);
    }
    r.begin_array()?;
    let mut elements = Elements {
        r,
        read,
        decoded: 0,
        failed: None,
    };
    push(&mut elements);
    elements.failed.map_or(Ok(Some(elements.decoded)), Err)
}

/// The elements of an open array, decoded one by one; the first error
/// ends them and is kept in `failed`.
struct Elements<'r, 'a, R> {
    r: &'r mut Reader<'a>,
    read: R,
    decoded: usize,
    failed: Option<WireError>,
}

impl<'a, T, R> Iterator for Elements<'_, 'a, R>
where
    R: FnMut(&mut Reader<'a>) -> Result<T, WireError>,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let next = match self.r.next_element() {
            Ok(true) => (self.read)(self.r).map(Some),
            Ok(false) => Ok(None),
            Err(e) => Err(e.into()),
        };
        match next {
            Ok(element) => {
                self.decoded += usize::from(element.is_some());
                element
            }
            Err(e) => {
                self.failed = Some(e);
                None
            }
        }
    }
}

fn read_coord(r: &mut Reader<'_>, key: &str) -> Result<f64, WireError> {
    let x = r
        .item()?
        .as_f64()
        .ok_or_else(|| schema(format!("{key} entries")))?;
    if !x.is_finite() {
        return Err(schema(format!("{key} entries must be finite")));
    }
    Ok(x)
}

fn read_transfer_op(r: &mut Reader<'_>) -> Result<TransferOp, WireError> {
    let Head::Arr(4, [ancilla, row, col, load]) = r.head::<4>()? else {
        return Err(schema("transfer op must be [ancilla, row, col, load]"));
    };
    Ok(TransferOp {
        ancilla: AncillaId(
            ancilla
                .as_u32()
                .ok_or_else(|| schema("transfer ancilla id"))?,
        ),
        row: row.as_usize().ok_or_else(|| schema("transfer row"))?,
        col: col.as_usize().ok_or_else(|| schema("transfer col"))?,
        load: load.as_bool().ok_or_else(|| schema("transfer load flag"))?,
    })
}

fn read_rydberg_op(r: &mut Reader<'_>) -> Result<RydbergOp, WireError> {
    let shape = || schema("rydberg op must be [atom, atom, kind]");
    if r.peek()? != Kind::Arr {
        r.skip()?;
        return Err(shape());
    }
    r.begin_array()?;
    // Each element is judged as it is read, but the verdicts are taken
    // in the order of the checks: the op's length first.
    let (mut a, mut b, mut kind, mut len) = (None, None, None, 0);
    while r.next_element()? {
        match len {
            0 => a = Some(atom(&r.head()?)),
            1 => b = Some(atom(&r.head()?)),
            2 => kind = Some(rydberg_kind(&r.head()?)),
            _ => {
                r.skip()?;
            }
        }
        len += 1;
    }
    let (3, Some(a), Some(b), Some(kind)) = (len, a, b, kind) else {
        return Err(shape());
    };
    Ok(RydbergOp {
        a: a?,
        b: b?,
        kind: kind?,
    })
}

fn atom(part: &Head<'_, 2>) -> Result<AtomRef, WireError> {
    let Head::Arr(2, [tag, index]) = part else {
        return Err(schema("atom must be [tag, index]"));
    };
    let idx = index
        .as_u32()
        .ok_or_else(|| schema("atom index must be a u32"))?;
    match tag.as_str() {
        Some("d") => Ok(AtomRef::Data(idx)),
        Some("a") => Ok(AtomRef::Ancilla(AncillaId(idx))),
        _ => Err(schema("atom tag must be \"d\" or \"a\"")),
    }
}

fn rydberg_kind(part: &Head<'_, 2>) -> Result<RydbergKind, WireError> {
    if matches!(part, Head::Other(Item::Str(s)) if s == "cz") {
        return Ok(RydbergKind::Cz);
    }
    let Head::Arr(2, [tag, value]) = part else {
        return Err(schema(
            "rydberg kind must be \"cz\", [\"cx\",b] or [\"zz\",t]",
        ));
    };
    match tag.as_str() {
        Some("cx") => Ok(RydbergKind::CxInto {
            target_b: value.as_bool().ok_or_else(|| schema("cx target flag"))?,
        }),
        Some("zz") => Ok(RydbergKind::Zz(
            value
                .as_f64()
                .filter(|t| t.is_finite())
                .ok_or_else(|| schema("zz angle must be finite"))?,
        )),
        _ => Err(schema("unknown rydberg kind")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schedule() -> Schedule {
        let mut b = ScheduleBuilder::new(3, 2, 2);
        let a = b.fresh_ancilla();
        b.transfer([TransferOp {
            ancilla: a,
            row: 0,
            col: 1,
            load: true,
        }]);
        b.move_stage(&[0.5, 10.0], &[1.85, 11.85]);
        b.raman([Gate::H(Qubit::new(3)), Gate::Rz(Qubit::new(0), -0.25)]);
        b.rydberg([
            RydbergOp::cz(AtomRef::Data(0), AtomRef::Ancilla(a)),
            RydbergOp::cx(AtomRef::Ancilla(a), AtomRef::Data(2)),
            RydbergOp::zz(AtomRef::Data(1), AtomRef::Data(2), 0.7),
        ]);
        b.transfer([TransferOp {
            ancilla: a,
            row: 0,
            col: 1,
            load: false,
        }]);
        b.finish()
    }

    #[test]
    fn round_trip_preserves_schedule() {
        let s = sample_schedule();
        let json = schedule_to_json(&s);
        let back = schedule_from_json(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn serialisation_is_canonical() {
        let s = sample_schedule();
        let once = schedule_to_json(&s);
        let twice = schedule_to_json(&schedule_from_json(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn format_tag_is_checked() {
        let mut doc = schedule_to_json(&sample_schedule());
        doc = doc.replace("qpilot.schedule/v1", "qpilot.schedule/v9");
        assert!(matches!(
            schedule_from_json(&doc),
            Err(WireError::Schema(_))
        ));
    }

    #[test]
    fn malformed_json_reports_json_error() {
        assert!(matches!(
            schedule_from_json("{\"format\":"),
            Err(WireError::Json(_))
        ));
    }

    #[test]
    fn all_gate_kinds_round_trip() {
        let gates = vec![
            Gate::H(Qubit::new(0)),
            Gate::X(Qubit::new(1)),
            Gate::Y(Qubit::new(2)),
            Gate::Z(Qubit::new(0)),
            Gate::S(Qubit::new(1)),
            Gate::Sdg(Qubit::new(2)),
            Gate::T(Qubit::new(0)),
            Gate::Tdg(Qubit::new(1)),
            Gate::Rx(Qubit::new(0), 0.1),
            Gate::Ry(Qubit::new(1), -0.2),
            Gate::Rz(Qubit::new(2), 1e-9),
            Gate::Cx(Qubit::new(0), Qubit::new(1)),
            Gate::Cz(Qubit::new(1), Qubit::new(2)),
            Gate::Zz(Qubit::new(0), Qubit::new(2), 2.5),
            Gate::Swap(Qubit::new(1), Qubit::new(0)),
        ];
        for g in gates {
            let mut out = String::new();
            write_gate(&mut out, &mut FloatTable::default(), &g);
            assert_eq!(read_gate(&mut Reader::new(&out)).unwrap(), g, "gate {g}");
        }
    }

    #[test]
    fn schema_errors_name_the_problem() {
        let bad = r#"{"format":"qpilot.schedule/v1","num_data":1,"num_ancillas":0,"aod_rows":1,"aod_cols":1,"stages":[{"kind":"warp"}]}"#;
        match schedule_from_json(bad) {
            Err(WireError::Schema(m)) => assert!(m.contains("warp")),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    /// Every float prints as `fmt_f64` prints it, whether its slot holds
    /// the value, another value, or nothing: the specials repeat in a new
    /// order each round, `-0.0` follows `0.0`, and between the rounds 600
    /// distinct values overwrite slots, each written twice so that the
    /// second copy reads the slot the first one took over.
    #[test]
    fn repeated_floats_print_as_fmt_f64() {
        let specials = [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            0.1 + 0.2,
            100.0,
            -1e-7,
            1e300,
            f64::MAX,
        ];
        let list = |vs: &[f64]| vs.iter().map(|v| json::fmt_f64(*v)).collect::<Vec<_>>();
        let mut b = ScheduleBuilder::new(2, 1, 1);
        let mut stages = Vec::new();
        for round in 0..4 {
            let mut order = specials;
            order.rotate_left(round);
            if round % 2 == 1 {
                order.reverse();
            }
            let distinct: Vec<f64> = (0..150)
                .map(|i| (round * 150 + i) as f64 * 0.37 - 50.0)
                .flat_map(|v| [v, v])
                .collect();
            b.move_stage(&order, &distinct);
            stages.push(format!(
                r#"{{"kind":"move","row_y":[{}],"col_x":[{}]}}"#,
                list(&order).join(","),
                list(&distinct).join(",")
            ));
            b.raman(order.iter().map(|&t| Gate::Rz(Qubit::new(0), t)));
            let gates: Vec<String> = list(&order)
                .iter()
                .map(|t| format!(r#"["rz",0,{t}]"#))
                .collect();
            stages.push(format!(
                r#"{{"kind":"raman","gates":[{}]}}"#,
                gates.join(",")
            ));
            order.reverse();
            b.rydberg(
                order
                    .iter()
                    .map(|&t| RydbergOp::zz(AtomRef::Data(0), AtomRef::Data(1), t)),
            );
            let ops: Vec<String> = list(&order)
                .iter()
                .map(|t| format!(r#"[["d",0],["d",1],["zz",{t}]]"#))
                .collect();
            stages.push(format!(r#"{{"kind":"rydberg","ops":[{}]}}"#, ops.join(",")));
        }
        let expected = format!(
            r#"{{"format":"qpilot.schedule/v1","num_data":2,"num_ancillas":0,"aod_rows":1,"aod_cols":1,"stages":[{}]}}"#,
            stages.join(",")
        );
        let s = b.finish();
        let json = schedule_to_json(&s);
        assert_eq!(json, expected);
        assert!(json.contains("[0,-0,"), "-0.0 keeps its sign after 0.0");
        assert_eq!(schedule_to_json(&schedule_from_json(&json).unwrap()), json);
    }

    /// A Move coordinate of `1e999` lexes as infinity. The decoder
    /// rejects it, as it does a non-finite angle: `schedule_to_json`
    /// panics on a non-finite number, so accepting it would break the
    /// round trip for every client that re-serialises the schedule.
    #[test]
    fn non_finite_move_coordinates_are_rejected() {
        let head = r#"{"format":"qpilot.schedule/v1","num_data":1,"num_ancillas":0,"aod_rows":1,"aod_cols":1,"stages":"#;
        for (stage, message) in [
            (
                r#"{"kind":"move","row_y":[1e999],"col_x":[0.5]}"#,
                "row_y entries must be finite",
            ),
            (
                r#"{"kind":"move","row_y":[0.5],"col_x":[-1e999]}"#,
                "col_x entries must be finite",
            ),
        ] {
            let doc = format!("{head}[{stage}]}}");
            assert_eq!(
                schedule_from_json(&doc),
                Err(WireError::Schema(message.to_string())),
                "{doc}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_float_panics() {
        let mut b = ScheduleBuilder::new(1, 1, 1);
        b.move_stage(&[0.5], &[f64::INFINITY]);
        schedule_to_json(&b.finish());
    }

    #[test]
    fn empty_schedule_round_trips() {
        let s = Schedule::new(1, 1, 1);
        assert_eq!(schedule_from_json(&schedule_to_json(&s)).unwrap(), s);
    }
}
