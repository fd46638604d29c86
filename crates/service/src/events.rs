//! Structured JSON event logs on stderr.
//!
//! Disabled by default; `qpilotd --log-json` turns it on. Each event is
//! one line of JSON on stderr so it composes with whatever collects the
//! daemon's stderr — no files, no rotation, no dependencies:
//!
//! ```text
//! {"ts_ms":1754650000123,"event":"request","request_id":"r-1a2b","path":"miss","ms":1.42,"ok":true}
//! ```
//!
//! `ts_ms` is milliseconds since the Unix epoch. Every event carries
//! `event`; the remaining fields are event-specific (see the README's
//! Observability section for the catalogue).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use qpilot_core::json::{fmt_f64, json_str};

static LOG_JSON: AtomicBool = AtomicBool::new(false);

/// Turns the JSON event log on or off (process-wide).
pub fn set_log_json(on: bool) {
    LOG_JSON.store(on, Ordering::Relaxed);
}

/// `true` when JSON event logging is on.
pub fn log_json_enabled() -> bool {
    LOG_JSON.load(Ordering::Relaxed)
}

/// A typed event field value; renders as native JSON.
#[derive(Debug, Clone)]
pub enum Field {
    /// A string value (JSON-escaped on render).
    Str(String),
    /// An unsigned integer value.
    U64(u64),
    /// A float value (finite; rendered with shortest round-trip).
    F64(f64),
    /// A boolean value.
    Bool(bool),
}

impl Field {
    fn render(&self) -> String {
        match self {
            Field::Str(s) => json_str(s),
            Field::U64(v) => v.to_string(),
            Field::F64(v) if v.is_finite() => fmt_f64(*v),
            Field::F64(_) => "null".to_string(),
            Field::Bool(b) => b.to_string(),
        }
    }
}

/// Emits one `{"ts_ms":…,"event":…,…}` line to stderr when logging is
/// on; a no-op (one relaxed load) otherwise.
pub fn emit(event: &str, fields: &[(&str, Field)]) {
    if !log_json_enabled() {
        return;
    }
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = format!("{{\"ts_ms\":{ts_ms},\"event\":{}", json_str(event));
    for (key, value) in fields {
        line.push(',');
        line.push_str(&json_str(key));
        line.push(':');
        line.push_str(&value.render());
    }
    line.push_str("}\n");
    // One write_all per event keeps lines atomic under the stderr lock.
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_render_as_json_values() {
        assert_eq!(Field::Str("a\"b".into()).render(), "\"a\\\"b\"");
        assert_eq!(Field::U64(7).render(), "7");
        assert_eq!(Field::F64(1.5).render(), "1.5");
        assert_eq!(Field::F64(f64::NAN).render(), "null");
        assert_eq!(Field::Bool(true).render(), "true");
    }

    #[test]
    fn emit_is_gated_by_the_flag() {
        // Default off: emitting must be a no-op (nothing observable to
        // assert beyond "does not panic", which is the point).
        assert!(!log_json_enabled());
        emit("test", &[("k", Field::U64(1))]);
    }
}
