//! Minimal OpenQASM 2.0 export and import, for debugging and interchange.
//!
//! [`Circuit::to_qasm`] renders the gate set onto `qelib1` names;
//! [`Circuit::from_qasm`] parses the same dialect back. The pair is
//! asymmetric in exactly one place, by necessity: `rzz` is not part of
//! `qelib1`, so the exporter emits its standard `cx`/`rz`/`cx` expansion
//! and the importer returns that expansion (it does not re-fuse it). The
//! importer *does* accept a literal `rzz(θ)` statement, so circuits from
//! tools that emit the gate directly still load. Everything else round
//! trips exactly: `Circuit::from_qasm(&c.to_qasm())` equals `c` gate for
//! gate whenever `c` contains no `Zz`, and re-emitting is always
//! byte-identical (`to_qasm ∘ from_qasm ∘ to_qasm = to_qasm`) because
//! angles are printed in Rust's shortest round-trip decimal form.

use std::fmt;
use std::fmt::Write as _;

use crate::{Circuit, CircuitError, Gate, Qubit};

impl Circuit {
    /// Renders the circuit as OpenQASM 2.0 source.
    ///
    /// `rzz` is emitted via its standard `cx`/`rz` expansion since it is not
    /// part of `qelib1`.
    ///
    /// # Example
    ///
    /// ```
    /// use qpilot_circuit::Circuit;
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1);
    /// let qasm = c.to_qasm();
    /// assert!(qasm.contains("h q[0];"));
    /// assert!(qasm.contains("cx q[0], q[1];"));
    /// ```
    pub fn to_qasm(&self) -> String {
        let mut out = String::new();
        out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
        let _ = writeln!(out, "qreg q[{}];", self.num_qubits());
        for g in self.iter() {
            match *g {
                Gate::Rx(q, t) | Gate::Ry(q, t) | Gate::Rz(q, t) => {
                    let _ = writeln!(out, "{}({}) q[{}];", g.mnemonic(), t, q.index());
                }
                Gate::Zz(a, b, t) => {
                    let _ = writeln!(out, "cx q[{}], q[{}];", a.index(), b.index());
                    let _ = writeln!(out, "rz({}) q[{}];", t, b.index());
                    let _ = writeln!(out, "cx q[{}], q[{}];", a.index(), b.index());
                }
                Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) => {
                    let _ = writeln!(out, "{} q[{}], q[{}];", g.mnemonic(), a.index(), b.index());
                }
                _ => {
                    let q = g
                        .operands()
                        .into_iter()
                        .next()
                        .expect("1Q gate has an operand");
                    let _ = writeln!(out, "{} q[{}];", g.mnemonic(), q.index());
                }
            }
        }
        out
    }

    /// Parses OpenQASM 2.0 source produced by [`Circuit::to_qasm`] (and the
    /// common subset other tools emit for this gate set).
    ///
    /// Supported statements: the `OPENQASM` header, `include`, one `qreg`,
    /// `creg` (ignored), `barrier` (ignored), and applications of `h x y z
    /// s sdg t tdg rx ry rz cx cz swap rzz` to `reg[i]` operands. Angle
    /// expressions may be decimal literals or the `pi` forms `pi`, `-pi`,
    /// `a*pi`, `pi/b`, `a*pi/b`.
    ///
    /// # Errors
    ///
    /// [`QasmError`] on malformed syntax, unsupported statements
    /// (`measure`, `if`, custom `gate` definitions, a second `qreg`) or
    /// gates referencing qubits outside the declared register.
    ///
    /// # Example
    ///
    /// ```
    /// use qpilot_circuit::Circuit;
    /// let mut c = Circuit::new(3);
    /// c.h(0).cx(0, 2).rz(1, -0.75);
    /// let back = Circuit::from_qasm(&c.to_qasm()).unwrap();
    /// assert_eq!(back, c);
    /// ```
    pub fn from_qasm(source: &str) -> Result<Circuit, QasmError> {
        Parser::new(source).parse()
    }
}

/// Error raised by [`Circuit::from_qasm`].
#[derive(Debug, Clone, PartialEq)]
pub enum QasmError {
    /// A statement could not be parsed.
    Syntax {
        /// 1-based source line of the statement's start.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A recognised but unsupported construct.
    Unsupported {
        /// 1-based source line of the statement's start.
        line: usize,
        /// The offending construct.
        construct: String,
    },
    /// A gate failed circuit validation (bad operands).
    Circuit(CircuitError),
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmError::Syntax { line, message } => {
                write!(f, "qasm syntax error on line {line}: {message}")
            }
            QasmError::Unsupported { line, construct } => {
                write!(f, "unsupported qasm construct on line {line}: {construct}")
            }
            QasmError::Circuit(e) => write!(f, "invalid gate in qasm: {e}"),
        }
    }
}

impl std::error::Error for QasmError {}

impl From<CircuitError> for QasmError {
    fn from(e: CircuitError) -> Self {
        QasmError::Circuit(e)
    }
}

struct Parser<'a> {
    source: &'a str,
    reg_name: Option<String>,
    reg_size: u32,
    circuit: Option<Circuit>,
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Self {
        Parser {
            source,
            reg_name: None,
            reg_size: 0,
            circuit: None,
        }
    }

    fn parse(mut self) -> Result<Circuit, QasmError> {
        for (line, stmt) in statements(self.source) {
            self.statement(line, &stmt)?;
        }
        self.circuit.ok_or(QasmError::Syntax {
            line: 1,
            message: "missing qreg declaration".into(),
        })
    }

    fn statement(&mut self, line: usize, stmt: &str) -> Result<(), QasmError> {
        let syntax = |message: String| QasmError::Syntax { line, message };
        let head = stmt.split_whitespace().next().unwrap_or("");
        // Split off the head also for `name(param)` forms.
        let keyword: String = head
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        match keyword.as_str() {
            "OPENQASM" | "include" | "barrier" => Ok(()),
            "creg" => Ok(()), // classical registers are irrelevant here
            "qreg" => self.qreg(line, stmt),
            "measure" | "if" | "gate" | "opaque" | "reset" => Err(QasmError::Unsupported {
                line,
                construct: keyword,
            }),
            "" => Err(syntax("empty statement".into())),
            _ => self.gate(line, stmt, &keyword),
        }
    }

    fn qreg(&mut self, line: usize, stmt: &str) -> Result<(), QasmError> {
        if self.circuit.is_some() {
            return Err(QasmError::Unsupported {
                line,
                construct: "second qreg".into(),
            });
        }
        // qreg name[N]
        let rest = stmt["qreg".len()..].trim();
        let (name, size) = parse_indexed(rest).ok_or(QasmError::Syntax {
            line,
            message: format!("malformed qreg: `{stmt}`"),
        })?;
        self.reg_name = Some(name.to_string());
        self.reg_size = size;
        self.circuit = Some(Circuit::new(size));
        Ok(())
    }

    fn gate(&mut self, line: usize, stmt: &str, name: &str) -> Result<(), QasmError> {
        let syntax = |message: String| QasmError::Syntax { line, message };
        let circuit = self.circuit.as_mut().ok_or(QasmError::Syntax {
            line,
            message: "gate before qreg declaration".into(),
        })?;
        let after_name = stmt[name.len()..].trim_start();
        // Optional parenthesised parameter.
        let (param, operand_text) = if let Some(rest) = after_name.strip_prefix('(') {
            let close = rest
                .find(')')
                .ok_or_else(|| syntax(format!("missing `)` in `{stmt}`")))?;
            let angle = parse_angle(rest[..close].trim())
                .ok_or_else(|| syntax(format!("bad angle `{}`", rest[..close].trim())))?;
            (Some(angle), rest[close + 1..].trim())
        } else {
            (None, after_name)
        };
        let mut qubits = Vec::new();
        for op in operand_text.split(',') {
            let op = op.trim();
            let (reg, idx) = parse_indexed(op)
                .ok_or_else(|| syntax(format!("malformed operand `{op}` in `{stmt}`")))?;
            if Some(reg) != self.reg_name.as_deref() {
                return Err(syntax(format!("unknown register `{reg}`")));
            }
            if idx >= self.reg_size {
                return Err(QasmError::Circuit(CircuitError::QubitOutOfRange {
                    qubit: Qubit::new(idx),
                    num_qubits: self.reg_size,
                }));
            }
            qubits.push(Qubit::new(idx));
        }
        let expect = |n: usize, with_param: bool| -> Result<(), QasmError> {
            if qubits.len() != n {
                return Err(QasmError::Syntax {
                    line,
                    message: format!("{name} expects {n} operand(s), got {}", qubits.len()),
                });
            }
            if param.is_some() != with_param {
                return Err(QasmError::Syntax {
                    line,
                    message: format!(
                        "{name} {} a parameter",
                        if with_param { "requires" } else { "takes no" }
                    ),
                });
            }
            Ok(())
        };
        let gate = match name {
            "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" => {
                expect(1, false)?;
                let q = qubits[0];
                match name {
                    "h" => Gate::H(q),
                    "x" => Gate::X(q),
                    "y" => Gate::Y(q),
                    "z" => Gate::Z(q),
                    "s" => Gate::S(q),
                    "sdg" => Gate::Sdg(q),
                    "t" => Gate::T(q),
                    _ => Gate::Tdg(q),
                }
            }
            "rx" | "ry" | "rz" => {
                expect(1, true)?;
                let (q, t) = (qubits[0], param.expect("checked"));
                match name {
                    "rx" => Gate::Rx(q, t),
                    "ry" => Gate::Ry(q, t),
                    _ => Gate::Rz(q, t),
                }
            }
            "cx" | "cz" | "swap" => {
                expect(2, false)?;
                let (a, b) = (qubits[0], qubits[1]);
                match name {
                    "cx" => Gate::Cx(a, b),
                    "cz" => Gate::Cz(a, b),
                    _ => Gate::Swap(a, b),
                }
            }
            "rzz" => {
                expect(2, true)?;
                Gate::Zz(qubits[0], qubits[1], param.expect("checked"))
            }
            other => {
                return Err(QasmError::Unsupported {
                    line,
                    construct: other.to_string(),
                })
            }
        };
        circuit.push(gate)?;
        Ok(())
    }
}

/// Splits source into `;`-terminated statements with their 1-based start
/// lines, stripping `//` comments.
fn statements(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut current = String::new();
    // Whether `current` is all whitespace, kept per piece: trimming
    // `current` for every piece would rescan it, quadratic in the blank
    // lines a statement spans.
    let mut blank = true;
    let mut start_line = 1;
    for (i, raw_line) in source.lines().enumerate() {
        let line = match raw_line.find("//") {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        for piece in line.split_inclusive(';') {
            if blank {
                start_line = i + 1;
            }
            if let Some(body) = piece.strip_suffix(';') {
                current.push_str(body);
                let stmt = current.trim().to_string();
                if !stmt.is_empty() {
                    out.push((start_line, stmt));
                }
                current.clear();
                blank = true;
            } else {
                current.push_str(piece);
                current.push(' ');
                blank &= piece.trim().is_empty();
            }
        }
    }
    let trailing = current.trim();
    if !trailing.is_empty() {
        out.push((start_line, trailing.to_string()));
    }
    out
}

/// Parses `name[N]`, returning the name and index.
fn parse_indexed(text: &str) -> Option<(&str, u32)> {
    let open = text.find('[')?;
    let close = text.find(']')?;
    if close != text.len() - 1 || close <= open {
        return None;
    }
    let name = text[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let idx: u32 = text[open + 1..close].trim().parse().ok()?;
    Some((name, idx))
}

/// Evaluates the angle expressions this dialect uses: decimal literals and
/// the `pi` family (`pi`, `-pi`, `a*pi`, `pi/b`, `a*pi/b`).
fn parse_angle(text: &str) -> Option<f64> {
    let text = text.trim();
    if let Ok(v) = text.parse::<f64>() {
        // `f64::from_str` accepts "inf"/"NaN" and overflows "1e999" to
        // infinity; none of those are angles, and letting them through
        // would panic downstream serialisers.
        return v.is_finite().then_some(v);
    }
    let (sign, body) = match text.strip_prefix('-') {
        Some(rest) => (-1.0, rest.trim()),
        None => (1.0, text),
    };
    let (mul, rest) = match body.split_once('*') {
        Some((a, rest)) => (a.trim().parse::<f64>().ok()?, rest.trim()),
        None => (1.0, body),
    };
    let (pi_part, div) = match rest.split_once('/') {
        Some((p, b)) => (p.trim(), b.trim().parse::<f64>().ok()?),
        None => (rest, 1.0),
    };
    if pi_part != "pi" || div == 0.0 {
        return None;
    }
    // The multiplier/divisor literals can themselves be non-finite or
    // overflow the product (`1e999*pi`, `pi/1e-308`); guard the final
    // value, not just the plain-literal branch above.
    let v = sign * mul * std::f64::consts::PI / div;
    v.is_finite().then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_register() {
        let c = Circuit::new(3);
        let q = c.to_qasm();
        assert!(q.starts_with("OPENQASM 2.0;"));
        assert!(q.contains("qreg q[3];"));
    }

    #[test]
    fn rotation_gates_carry_angles() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.5);
        assert!(c.to_qasm().contains("rz(0.5) q[0];"));
    }

    #[test]
    fn rzz_expands() {
        let mut c = Circuit::new(2);
        c.zz(0, 1, 0.25);
        let q = c.to_qasm();
        assert_eq!(q.matches("cx q[0], q[1];").count(), 2);
        assert!(q.contains("rz(0.25) q[1];"));
    }

    #[test]
    fn round_trip_without_zz_is_identity() {
        let mut c = Circuit::new(5);
        c.h(0)
            .x(1)
            .y(2)
            .z(3)
            .s(4)
            .sdg(0)
            .t(1)
            .tdg(2)
            .rx(3, 0.1)
            .ry(4, -2.5)
            .rz(0, 1e-7)
            .cx(0, 4)
            .cz(1, 3)
            .swap(2, 0);
        assert_eq!(Circuit::from_qasm(&c.to_qasm()).unwrap(), c);
    }

    #[test]
    fn reemission_is_byte_identical_even_with_zz() {
        let mut c = Circuit::new(3);
        c.h(0).zz(0, 2, -0.75).cx(1, 2).rz(0, 0.125);
        let emitted = c.to_qasm();
        let parsed = Circuit::from_qasm(&emitted).unwrap();
        assert_eq!(parsed.to_qasm(), emitted);
    }

    #[test]
    fn literal_rzz_is_accepted() {
        let src = "OPENQASM 2.0;\nqreg q[2];\nrzz(0.5) q[0], q[1];\n";
        let c = Circuit::from_qasm(src).unwrap();
        assert_eq!(c.gates(), &[Gate::Zz(Qubit::new(0), Qubit::new(1), 0.5)]);
    }

    #[test]
    fn non_finite_angles_are_rejected() {
        for angle in [
            "inf",
            "-inf",
            "NaN",
            "1e999",
            "1e999*pi",
            "inf*pi",
            "pi/1e-308",
        ] {
            let src = format!("qreg q[1]; rz({angle}) q[0];");
            assert!(
                matches!(Circuit::from_qasm(&src), Err(QasmError::Syntax { .. })),
                "angle `{angle}` must be rejected"
            );
        }
    }

    #[test]
    fn pi_expressions_evaluate() {
        let src = "qreg q[1]; rz(pi) q[0]; rz(-pi/2) q[0]; rz(3*pi/4) q[0]; rz(2*pi) q[0];";
        let c = Circuit::from_qasm(src).unwrap();
        let angles: Vec<f64> = c
            .iter()
            .map(|g| match *g {
                Gate::Rz(_, t) => t,
                _ => unreachable!(),
            })
            .collect();
        let pi = std::f64::consts::PI;
        assert_eq!(angles, vec![pi, -pi / 2.0, 3.0 * pi / 4.0, 2.0 * pi]);
    }

    #[test]
    fn comments_whitespace_and_multiline_statements() {
        let src = "// header comment\nOPENQASM 2.0;\nqreg q[2]; // reg\n  cx\n  q[0],\n  q[1];\ncreg c[2];\nbarrier q[0];\n";
        let c = Circuit::from_qasm(src).unwrap();
        assert_eq!(c.gates(), &[Gate::Cx(Qubit::new(0), Qubit::new(1))]);
    }

    #[test]
    fn errors_are_located_and_typed() {
        assert!(matches!(
            Circuit::from_qasm("qreg q[2]; measure q[0] -> c[0];"),
            Err(QasmError::Unsupported { construct, .. }) if construct == "measure"
        ));
        assert!(matches!(
            Circuit::from_qasm("qreg q[2];\nfrobnicate q[0];"),
            Err(QasmError::Unsupported { line: 2, .. })
        ));
        assert!(matches!(
            Circuit::from_qasm("qreg q[2]; h q[9];"),
            Err(QasmError::Circuit(CircuitError::QubitOutOfRange { .. }))
        ));
        assert!(matches!(
            Circuit::from_qasm("qreg q[2]; cz q[0], q[0];"),
            Err(QasmError::Circuit(CircuitError::DuplicateOperands { .. }))
        ));
        assert!(matches!(
            Circuit::from_qasm("h q[0];"),
            Err(QasmError::Syntax { .. })
        ));
        assert!(matches!(
            Circuit::from_qasm("qreg q[2]; rz q[0];"),
            Err(QasmError::Syntax { .. })
        ));
        assert!(matches!(
            Circuit::from_qasm("qreg q[2]; h r[0];"),
            Err(QasmError::Syntax { .. })
        ));
        assert!(Circuit::from_qasm("").is_err());
    }

    #[test]
    fn foreign_register_name_round_trips() {
        let src = "qreg data[3]; h data[1]; cx data[0], data[2];";
        let c = Circuit::from_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.len(), 2);
    }

    /// QASM arrives in request lines, so parse time must be linear:
    /// doubling the blank lines between two statements, the blank lines
    /// inside one statement, or the gate lines may cost at most 2.5×.
    /// Each input grows until it takes at least 1 ms, and each side of a
    /// round is the minimum of 5 interleaved timings. Other threads can
    /// steal the CPU for a whole round, so a shape gets up to 10 rounds
    /// to show one clean ratio; a quadratic splitter fails every round.
    #[test]
    fn doubling_the_input_at_most_doubles_parse_time() {
        use std::time::{Duration, Instant};

        fn time(src: &str) -> Duration {
            let started = Instant::now();
            std::hint::black_box(
                Circuit::from_qasm(std::hint::black_box(src)).expect("valid QASM"),
            );
            started.elapsed()
        }
        let between = |n: usize| format!("qreg q[2];\n{}cz q[0], q[1];\n", " \n".repeat(n));
        let inside = |n: usize| format!("qreg q[2];\ncz q[0],\n{}q[1];\n", " \n".repeat(n));
        let gates = |n: usize| format!("qreg q[2];\n{}", "cz q[0], q[1];\n".repeat(n));
        let shapes: [(&str, &dyn Fn(usize) -> String); 3] = [
            ("blank lines between statements", &between),
            ("one statement over blank lines", &inside),
            ("gate lines", &gates),
        ];
        for (shape, build) in shapes {
            let mut n = 1024;
            while (0..3).map(|_| time(&build(n))).min() < Some(Duration::from_millis(1)) {
                n *= 2;
            }
            let (small, large) = (build(n), build(2 * n));
            let mut rounds = Vec::new();
            while rounds.len() < 10 && rounds.last().is_none_or(|&(ratio, _, _)| ratio > 2.5) {
                let (mut t_small, mut t_large) = (Duration::MAX, Duration::MAX);
                for _ in 0..5 {
                    t_small = t_small.min(time(&small));
                    t_large = t_large.min(time(&large));
                }
                rounds.push((
                    t_large.as_secs_f64() / t_small.as_secs_f64(),
                    t_small,
                    t_large,
                ));
            }
            assert!(
                rounds.last().is_some_and(|&(ratio, _, _)| ratio <= 2.5),
                "{shape}: {} then {} bytes, (ratio, times) per round: {rounds:?}",
                small.len(),
                large.len()
            );
        }
    }
}
