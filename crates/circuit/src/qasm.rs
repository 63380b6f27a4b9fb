//! OpenQASM 2.0 subset import/export.
//!
//! The exported dialect is the small subset every QLS toolchain understands:
//! a single quantum register `q`, the one-qubit gates `h x y z s t` and the
//! two-qubit gates `cx cz swap`. This is enough to hand QUBIKOS circuits to
//! external compilers (Qiskit, t|ket⟩, QMAP) and to read their input format
//! back for cross-checking.
//!
//! The parser is deliberately more liberal than the exporter: statements may
//! separate the mnemonic from its operands with any run of whitespace
//! (including tabs — Qiskit and t|ket⟩ exporters disagree here), and the
//! single quantum register may carry any identifier (`qreg reg[16];` is a
//! legal export several tools produce). Files declaring more than one
//! quantum register are outside the subset and rejected with a clear error.

use crate::circuit::Circuit;
use crate::gate::{Gate, OneQubitKind, TwoQubitKind};
use std::error::Error;
use std::fmt;

/// Error produced by [`parse_qasm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    line: usize,
    message: String,
}

impl ParseQasmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseQasmError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number the error was found on.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseQasmError {}

/// Serializes a circuit to the OpenQASM 2.0 subset.
///
/// # Example
///
/// ```
/// use qubikos_circuit::{Circuit, Gate, to_qasm};
///
/// let c = Circuit::from_gates(2, [Gate::h(0), Gate::cx(0, 1)]);
/// let text = to_qasm(&c);
/// assert!(text.contains("qreg q[2];"));
/// assert!(text.contains("cx q[0], q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::with_capacity(qasm_len(circuit));
    out.push_str(HEADER);
    out.push_str("qreg q[");
    push_index(&mut out, circuit.num_qubits());
    out.push_str("];\n");
    for gate in circuit.gates() {
        match *gate {
            Gate::One { kind, qubit } => {
                out.push_str(kind.mnemonic());
                out.push_str(" q[");
                push_index(&mut out, qubit);
            }
            Gate::Two { kind, qubits } => {
                out.push_str(kind.mnemonic());
                out.push_str(" q[");
                push_index(&mut out, qubits[0]);
                out.push_str("], q[");
                push_index(&mut out, qubits[1]);
            }
        }
        out.push_str("];\n");
    }
    debug_assert_eq!(out.len(), qasm_len(circuit));
    out
}

/// The two header lines every export starts with.
const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

/// Exact byte length of [`to_qasm`]'s output, so it is written into one
/// allocation.
fn qasm_len(circuit: &Circuit) -> usize {
    // Per line: `qreg q[` / ` q[` / `], q[` before an index, `];\n` after.
    let gates: usize = circuit
        .gates()
        .iter()
        .map(|gate| match *gate {
            Gate::One { kind, qubit } => kind.mnemonic().len() + 3 + digits(qubit) + 3,
            Gate::Two { kind, qubits } => {
                kind.mnemonic().len() + 3 + digits(qubits[0]) + 5 + digits(qubits[1]) + 3
            }
        })
        .sum();
    HEADER.len() + 7 + digits(circuit.num_qubits()) + 3 + gates
}

/// Number of decimal digits of `n`.
fn digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Appends the decimal form of `n` without a formatting pass.
fn push_index(out: &mut String, mut n: usize) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
}

/// Parses the OpenQASM 2.0 subset produced by [`to_qasm`].
///
/// Header lines (`OPENQASM`, `include`), blank lines and `//` comments are
/// accepted; `creg` and `measure` statements are ignored so circuits exported
/// by other tools with trailing measurements still load. The mnemonic and
/// its operands may be separated by any whitespace (spaces or tabs), and the
/// quantum register may carry any identifier — operands must then reference
/// that register.
///
/// # Errors
///
/// Returns a [`ParseQasmError`] for unknown gates, malformed operands, qubit
/// indices outside the declared register, operands naming an undeclared
/// register, a second `qreg` declaration, or a missing `qreg` declaration.
pub fn parse_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    let mut register: Option<(String, Circuit)> = None;
    // Each line holds at most one gate: reserving that many keeps the gate
    // list from regrowing.
    let max_gates = text.bytes().filter(|&b| b == b'\n').count() + 1;
    for (lineno, raw) in text.lines().enumerate() {
        let line_number = lineno + 1;
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() || line.starts_with("OPENQASM") || line.starts_with("include") {
            continue;
        }
        let statement = line
            .strip_suffix(';')
            .ok_or_else(|| ParseQasmError::new(line_number, "missing trailing ';'"))?
            .trim();
        if statement.starts_with("creg")
            || statement.starts_with("measure")
            || statement.starts_with("barrier")
        {
            continue;
        }
        if let Some(rest) = statement.strip_prefix("qreg") {
            let (name, size) = parse_register_decl(rest.trim())
                .ok_or_else(|| ParseQasmError::new(line_number, "malformed qreg declaration"))?;
            if let Some((first, _)) = &register {
                return Err(ParseQasmError::new(
                    line_number,
                    format!(
                        "multiple quantum registers are not supported \
                         (register '{first}' already declared, found '{name}')"
                    ),
                ));
            }
            register = Some((name, Circuit::with_capacity(size, max_gates)));
            continue;
        }
        let (reg_name, circuit) = register
            .as_mut()
            .ok_or_else(|| ParseQasmError::new(line_number, "gate before qreg declaration"))?;
        // Split on the first run of whitespace: tool exporters variously emit
        // `cx q[0], q[1]`, `cx\tq[0],q[1]`, and multi-space alignment.
        let (mnemonic, operands) = statement
            .split_once(char::is_whitespace)
            .ok_or_else(|| ParseQasmError::new(line_number, "missing operands"))?;
        // Every operand must parse; no supported gate takes more than two,
        // so only the first two are kept and a longer list is unsupported.
        let mut qubits = [0; 2];
        let mut arity = 0;
        for op in operands.split(',') {
            let qubit = parse_qubit_operand(op.trim(), reg_name).map_err(|detail| {
                ParseQasmError::new(line_number, format!("malformed qubit operand: {detail}"))
            })?;
            if let Some(slot) = qubits.get_mut(arity) {
                *slot = qubit;
            }
            arity += 1;
        }
        let gate = qubits
            .get(..arity)
            .and_then(|qubits| build_gate(mnemonic, qubits))
            .ok_or_else(|| {
                ParseQasmError::new(line_number, format!("unsupported gate '{mnemonic}'"))
            })?;
        if gate.max_qubit() >= circuit.num_qubits() {
            return Err(ParseQasmError::new(
                line_number,
                format!(
                    "qubit index out of range for register of {}",
                    circuit.num_qubits()
                ),
            ));
        }
        circuit.push(gate);
    }
    register
        .map(|(_, circuit)| circuit)
        .ok_or_else(|| ParseQasmError::new(0, "no qreg declaration found"))
}

/// Parses a register declaration body `name[size]` into its parts.
fn parse_register_decl(decl: &str) -> Option<(String, usize)> {
    let (name, rest) = decl.split_once('[')?;
    let name = name.trim();
    if name.is_empty() || !is_identifier(name) {
        return None;
    }
    let size = rest.strip_suffix(']')?.trim().parse().ok()?;
    Some((name.to_string(), size))
}

/// An OpenQASM identifier: a letter or underscore followed by alphanumerics
/// or underscores.
fn is_identifier(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses an operand `reg[i]` against the declared register name.
fn parse_qubit_operand(op: &str, register: &str) -> Result<usize, String> {
    let (name, rest) = op
        .split_once('[')
        .ok_or_else(|| format!("expected '{register}[i]', found '{op}'"))?;
    let name = name.trim();
    if name != register {
        return Err(format!(
            "operand references register '{name}' but '{register}' is declared"
        ));
    }
    let index = rest
        .strip_suffix(']')
        .ok_or_else(|| format!("missing ']' in '{op}'"))?;
    index
        .trim()
        .parse()
        .map_err(|_| format!("non-numeric index in '{op}'"))
}

fn build_gate(mnemonic: &str, qubits: &[usize]) -> Option<Gate> {
    match (mnemonic, qubits) {
        ("h", [q]) => Some(Gate::one(OneQubitKind::H, *q)),
        ("x", [q]) => Some(Gate::one(OneQubitKind::X, *q)),
        ("y", [q]) => Some(Gate::one(OneQubitKind::Y, *q)),
        ("z", [q]) => Some(Gate::one(OneQubitKind::Z, *q)),
        ("s", [q]) => Some(Gate::one(OneQubitKind::S, *q)),
        ("t", [q]) => Some(Gate::one(OneQubitKind::T, *q)),
        ("cx", [a, b]) if a != b => Some(Gate::two(TwoQubitKind::Cx, *a, *b)),
        ("cz", [a, b]) if a != b => Some(Gate::two(TwoQubitKind::Cz, *a, *b)),
        ("swap", [a, b]) if a != b => Some(Gate::two(TwoQubitKind::Swap, *a, *b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        Circuit::from_gates(
            4,
            [
                Gate::h(0),
                Gate::cx(0, 1),
                Gate::cz(1, 2),
                Gate::swap(2, 3),
                Gate::t(3),
            ],
        )
    }

    #[test]
    fn round_trip_preserves_circuit() {
        let c = sample();
        let parsed = parse_qasm(&to_qasm(&c)).expect("round trip");
        assert_eq!(parsed, c);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "OPENQASM 2.0;\n\n// a comment\nqreg q[2];\nh q[0]; // trailing comment\ncx q[0], q[1];\n";
        let c = parse_qasm(text).expect("parse");
        assert_eq!(c.gate_count(), 2);
    }

    #[test]
    fn ignores_creg_measure_barrier() {
        let text =
            "qreg q[2];\ncreg c[2];\ncx q[0], q[1];\nbarrier q[0], q[1];\nmeasure q[0] -> c[0];\n";
        let c = parse_qasm(text).expect("parse");
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn rejects_unknown_gate() {
        let err = parse_qasm("qreg q[2];\nccx q[0], q[1];\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("unsupported gate"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        let err = parse_qasm("qreg q[2];\nh q[0]\n").unwrap_err();
        assert!(err.to_string().contains("missing trailing"));
    }

    #[test]
    fn rejects_out_of_range_qubit() {
        let err = parse_qasm("qreg q[2];\ncx q[0], q[5];\n").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn rejects_gate_before_register() {
        let err = parse_qasm("h q[0];\n").unwrap_err();
        assert!(err.to_string().contains("before qreg"));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_qasm("").is_err());
    }

    #[test]
    fn header_is_well_formed() {
        let text = to_qasm(&Circuit::new(3));
        assert!(text.starts_with("OPENQASM 2.0;\n"));
        assert!(text.contains("qreg q[3];"));
    }

    #[test]
    fn parses_tab_separated_statements() {
        let text = "qreg q[3];\nh\tq[0];\ncx\tq[0],\tq[1];\nswap\tq[1], q[2];\n";
        let c = parse_qasm(text).expect("tabs parse");
        assert_eq!(
            c,
            Circuit::from_gates(3, [Gate::h(0), Gate::cx(0, 1), Gate::swap(1, 2)])
        );
    }

    #[test]
    fn parses_multi_space_separated_statements() {
        let text = "qreg q[2];\ncx   q[0],   q[1];\nh     q[1];\n";
        let c = parse_qasm(text).expect("multi-space parse");
        assert_eq!(c, Circuit::from_gates(2, [Gate::cx(0, 1), Gate::h(1)]));
    }

    #[test]
    fn accepts_any_register_identifier() {
        let text = "OPENQASM 2.0;\nqreg reg[16];\ncx reg[3], reg[4];\nh reg[15];\n";
        let c = parse_qasm(text).expect("named register parses");
        assert_eq!(c.num_qubits(), 16);
        assert_eq!(c, Circuit::from_gates(16, [Gate::cx(3, 4), Gate::h(15)]));
        let underscored = "qreg _q0[2];\ncx _q0[0], _q0[1];\n";
        assert_eq!(parse_qasm(underscored).expect("parses").gate_count(), 1);
    }

    #[test]
    fn rejects_operand_from_undeclared_register() {
        let err = parse_qasm("qreg reg[4];\ncx reg[0], q[1];\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("references register 'q'"));
    }

    #[test]
    fn rejects_multiple_quantum_registers() {
        let err = parse_qasm("qreg a[2];\nqreg b[2];\ncx a[0], b[0];\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("multiple quantum registers"));
        assert!(err.to_string().contains("'a'"));
    }

    /// `(text, line, Display)` of inputs whose operand list does not fit the
    /// mnemonic or does not parse.
    const OPERAND_ERRORS: [(&str, usize, &str); 6] = [
        (
            "qreg q[3];\ncx q[0], q[1], q[2];\n",
            2,
            "qasm parse error at line 2: unsupported gate 'cx'",
        ),
        (
            "qreg q[3];\nh q[0];\nh q[0], q[1];\n",
            3,
            "qasm parse error at line 3: unsupported gate 'h'",
        ),
        (
            "qreg q[3];\ncx q[0];\n",
            2,
            "qasm parse error at line 2: unsupported gate 'cx'",
        ),
        (
            "qreg q[3];\ncx q[0], q1;\n",
            2,
            "qasm parse error at line 2: malformed qubit operand: expected 'q[i]', found 'q1'",
        ),
        (
            "qreg q[3];\ncx q[0], q[1], q[x];\n",
            2,
            "qasm parse error at line 2: malformed qubit operand: non-numeric index in 'q[x]'",
        ),
        (
            "qreg q[3];\nswap q[0], q[1;\n",
            2,
            "qasm parse error at line 2: malformed qubit operand: missing ']' in 'q[1'",
        ),
    ];

    #[test]
    fn operand_count_and_syntax_errors_name_the_line() {
        for (text, line, message) in OPERAND_ERRORS {
            let err = parse_qasm(text).unwrap_err();
            assert_eq!(
                (err.line(), err.to_string().as_str()),
                (line, message),
                "{text:?}"
            );
        }
    }

    #[test]
    fn to_qasm_bytes_are_pinned() {
        let c = Circuit::from_gates(
            12,
            [
                Gate::one(OneQubitKind::H, 0),
                Gate::one(OneQubitKind::X, 1),
                Gate::one(OneQubitKind::Y, 9),
                Gate::one(OneQubitKind::Z, 10),
                Gate::one(OneQubitKind::S, 11),
                Gate::one(OneQubitKind::T, 2),
                Gate::cx(10, 3),
                Gate::cz(4, 11),
                Gate::swap(0, 10),
            ],
        );
        let expected = "OPENQASM 2.0;\n\
                        include \"qelib1.inc\";\n\
                        qreg q[12];\n\
                        h q[0];\n\
                        x q[1];\n\
                        y q[9];\n\
                        z q[10];\n\
                        s q[11];\n\
                        t q[2];\n\
                        cx q[10], q[3];\n\
                        cz q[4], q[11];\n\
                        swap q[0], q[10];\n";
        assert_eq!(to_qasm(&c), expected);
        assert_eq!(
            to_qasm(&Circuit::new(0)),
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[0];\n"
        );
        assert_eq!(parse_qasm(expected).expect("parses"), c);
    }

    #[test]
    fn rejects_malformed_register_names() {
        assert!(parse_qasm("qreg 9q[2];\nh 9q[0];\n").is_err());
        assert!(parse_qasm("qreg [2];\nh q[0];\n").is_err());
    }
}
