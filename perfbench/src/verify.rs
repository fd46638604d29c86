//! Reply verification with an independent interpreter.
//!
//! The returned schedule bytes are parsed and lowered to a circuit, and
//! `qpilot-sim` must confirm that the circuit implements the request's
//! reference circuit, which is built from the request's own inputs. The
//! compiler's output is never its own reference.

use qpilot_core::validate::validate_schedule;
use qpilot_core::wire::{schedule_from_json, schedule_to_json};
use qpilot_sim::stabilizer::clifford_verify_compiled;

use crate::gen::Input;

/// Verifies one reply's schedule bytes against the input that produced
/// them.
///
/// Every schedule must parse, re-serialise to the same bytes, and pass
/// the geometric validator. Clifford families are then checked with the
/// stabilizer tableau at full width. QFT and VQE inputs (16–32 qubits,
/// non-Clifford) are too wide for the dense simulator, so for them the
/// validator and the byte round-trip are the whole check.
pub fn verify(input: &Input, schedule_bytes: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(schedule_bytes).map_err(|_| "schedule is not UTF-8")?;
    let schedule = schedule_from_json(text).map_err(|e| format!("schedule does not parse: {e}"))?;
    if schedule_to_json(&schedule).as_bytes() != schedule_bytes {
        return Err("schedule bytes do not round-trip".into());
    }
    let config = input.workload.config(None);
    // The validator assumes the schedule was routed for this register.
    if schedule.num_data != config.num_data() {
        return Err(format!(
            "schedule has {} data qubits, the request {}",
            schedule.num_data,
            config.num_data()
        ));
    }
    validate_schedule(&schedule, &config).map_err(|e| format!("schedule fails validation: {e}"))?;
    if !input.family.is_clifford() {
        return Ok(());
    }
    match clifford_verify_compiled(&schedule.to_circuit(), &input.reference()) {
        Ok(true) => Ok(()),
        Ok(false) => Err("schedule does not implement the request".into()),
        Err(e) => Err(format!("tableau check impossible: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use qpilot_core::compile::Compiler;

    use super::*;
    use crate::gen::{structured, Family};

    fn compiled(input: &Input) -> String {
        let config = input.workload.config(None);
        let program = Compiler::new()
            .compile(&input.workload, &config)
            .expect("generated inputs compile")
            .into_program();
        schedule_to_json(program.schedule())
    }

    #[test]
    fn every_structured_family_verifies_and_a_wrong_schedule_fails() {
        let mut seen = std::collections::BTreeMap::new();
        for i in 0..48 {
            let input = structured(3, i);
            // One instance per family keeps the test quick; qsim's ~0.5 MB
            // schedules are verified by every cold-structured run instead.
            if seen.contains_key(&input.family) || input.family == Family::Qsim {
                continue;
            }
            let bytes = compiled(&input);
            verify(&input, bytes.as_bytes()).unwrap_or_else(|e| panic!("{:?}: {e}", input.family));
            seen.insert(input.family, (input, bytes));
        }
        assert_eq!(seen.len(), 5);
        // Another QAOA instance's schedule routes the same register but
        // not the same unitary: the tableau must reject it.
        let other = (0..48)
            .map(|i| structured(3, i))
            .filter(|i| i.family == Family::Qaoa)
            .nth(1)
            .expect("two QAOA inputs");
        assert!(verify(&other, seen[&Family::Qaoa].1.as_bytes()).is_err());
        // A schedule for another register is rejected before validation.
        assert!(verify(&seen[&Family::Qec].0, seen[&Family::Qaoa].1.as_bytes()).is_err());
        // Tampered bytes fail the round trip.
        let (qec, bytes) = &seen[&Family::Qec];
        let mut tampered = bytes.clone().into_bytes();
        tampered.insert(1, b' ');
        assert!(verify(qec, &tampered).is_err());
    }
}
