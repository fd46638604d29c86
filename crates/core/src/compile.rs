//! The unified compile pipeline — the crate's front door.
//!
//! Q-Pilot's claim is one FPQA substrate serving three workload families
//! through flying-ancilla routing. This module makes that the shape of
//! the API: a [`Workload`] describes *what* to compile (an arbitrary
//! circuit, a Pauli-string evolution, a QAOA cost graph), a [`Compiler`]
//! turns it into a hardware [`Schedule`](crate::Schedule) by running the
//! full pipeline — decompose → route → (optionally) validate/lower —
//! and every knob lives in one builder-style [`CompileOptions`]. The
//! workload family alone picks the router: [`Compiler::compile`] is one
//! `match` on the [`Workload`].
//!
//! The four routers stay available for direct use ([`GenericRouter`],
//! [`QsimRouter`], [`QaoaRouter`], [`QecRouter`]); the pipeline produces
//! byte-identical schedules to calling them directly — the workspace's
//! differential suites assert this on serialised wire bytes.
//!
//! # Generic circuits
//!
//! ```
//! use qpilot_circuit::Circuit;
//! use qpilot_core::compile::{compile, Workload};
//! use qpilot_core::FpqaConfig;
//!
//! let mut c = Circuit::new(4);
//! c.h(0).cx(0, 3).cz(1, 2);
//! let workload = Workload::circuit(c);
//! let config = FpqaConfig::square_for(4);
//! let program = compile(&workload, &config).unwrap();
//! assert!(program.stats().two_qubit_gates > 0);
//! ```
//!
//! # Quantum simulation (Pauli-string evolutions)
//!
//! ```
//! use qpilot_core::compile::{compile, Workload};
//! use qpilot_core::FpqaConfig;
//!
//! let workload = Workload::pauli_strings(
//!     vec!["ZZIZ".parse().unwrap(), "IXXI".parse().unwrap()],
//!     0.5,
//! );
//! let config = workload.config(None); // smallest square array
//! let program = compile(&workload, &config).unwrap();
//! assert!(program.stats().two_qubit_depth > 0);
//! ```
//!
//! # QAOA cost layers
//!
//! ```
//! use qpilot_core::compile::{Compiler, CompileOptions, Workload};
//! use qpilot_core::qaoa::QaoaRouterOptions;
//! use qpilot_core::FpqaConfig;
//!
//! let workload = Workload::qaoa_round(4, vec![(0, 1), (1, 2), (2, 3)], 0.7, 0.3);
//! let config = FpqaConfig::square_for(4);
//! // Builder-style options: explicit router options plus the validate
//! // toggle (the geometric validator replays the schedule).
//! let mut compiler = Compiler::with_options(
//!     CompileOptions::new()
//!         .router_options(QaoaRouterOptions::default())
//!         .validate(true),
//! );
//! let out = compiler.compile(&workload, &config).unwrap();
//! assert!(out.validation.as_ref().unwrap().rydberg_stages > 0);
//! ```

use std::fmt;

use qpilot_circuit::{Circuit, Fingerprint, Pauli, PauliString, StableHasher};

use crate::cancel::CancelToken;
use crate::error::RouteError;
use crate::generic::{GenericRouter, GenericRouterOptions};
use crate::qaoa::{QaoaRouter, QaoaRouterOptions};
use crate::qec::{QecRouter, QecRouterOptions};
use crate::qsim::{QsimRouter, QsimRouterOptions};
use crate::validate::{validate_schedule, ValidateError, ValidationReport};
use crate::{CompiledProgram, FpqaConfig};

/// The fingerprint domain of [`fingerprint`]; bumping it invalidates
/// every content-addressed schedule cache.
pub const FINGERPRINT_DOMAIN: &str = "qpilot.compile/v2";

/// Which of Q-Pilot's routers a compilation targets (also the service
/// protocol's `"router"` tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterTag {
    /// The generic flying-ancilla router (arbitrary circuits).
    Generic,
    /// The quantum-simulation router (Pauli-string evolutions).
    Qsim,
    /// The QAOA router (cost-layer graphs).
    Qaoa,
    /// The QEC syndrome-extraction router (surface-code rounds).
    Qec,
}

impl RouterTag {
    /// The wire name (`generic` / `qsim` / `qaoa` / `qec`).
    pub fn as_str(self) -> &'static str {
        match self {
            RouterTag::Generic => "generic",
            RouterTag::Qsim => "qsim",
            RouterTag::Qaoa => "qaoa",
            RouterTag::Qec => "qec",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<RouterTag> {
        match s {
            "generic" => Some(RouterTag::Generic),
            "qsim" => Some(RouterTag::Qsim),
            "qaoa" => Some(RouterTag::Qaoa),
            "qec" => Some(RouterTag::Qec),
            _ => None,
        }
    }
}

impl fmt::Display for RouterTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A QAOA problem instance: the cost graph plus per-round angles.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaWorkload {
    /// Problem size (data qubits).
    pub num_qubits: u32,
    /// Cost-layer edges.
    pub edges: Vec<(u32, u32)>,
    /// Per-round `ZZ(γ)` angles (at least one).
    pub gammas: Vec<f64>,
    /// Per-round `Rx(β)` mixer angles: either empty (route bare cost
    /// layers, one per `gamma`) or the same length as `gammas` (route
    /// full rounds with Hadamard prologue and mixers).
    pub betas: Vec<f64>,
}

/// A QEC problem instance: `rounds` stabilizer-phase rounds of the
/// distance-`d` rotated surface code, each round implementing
/// `Π_s exp(-i θ/2 S_s)` over all `d² − 1` stabilizers `S_s` with one
/// flying ancilla per check (see [`crate::qec`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QecWorkload {
    /// Code distance (`≥ 2`); the data register is `d²` qubits.
    pub distance: u32,
    /// Number of syndrome-extraction rounds (`≥ 1`).
    pub rounds: u32,
    /// The per-stabilizer rotation angle `θ`.
    pub theta: f64,
}

/// What to compile: the per-family payload. The workload family selects
/// the router.
///
/// # Example
///
/// ```
/// use qpilot_circuit::Circuit;
/// use qpilot_core::compile::{RouterTag, Workload};
///
/// let mut c = Circuit::new(2);
/// c.cz(0, 1);
/// assert_eq!(Workload::circuit(c).router(), RouterTag::Generic);
///
/// let qaoa = Workload::qaoa_round(4, vec![(0, 1), (2, 3)], 0.7, 0.3);
/// assert_eq!(qaoa.router(), RouterTag::Qaoa);
/// assert_eq!(qaoa.num_qubits(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// An arbitrary circuit for the generic router.
    Generic(Circuit),
    /// Weighted Pauli-string evolutions (`(string, angle)` pairs routed
    /// in order) for the qsim router.
    Qsim(Vec<(PauliString, f64)>),
    /// A QAOA cost-layer problem for the QAOA router.
    Qaoa(QaoaWorkload),
    /// A surface-code syndrome-extraction problem for the QEC router.
    Qec(QecWorkload),
}

impl From<Circuit> for Workload {
    fn from(circuit: Circuit) -> Self {
        Workload::Generic(circuit)
    }
}

impl Workload {
    /// A generic-router workload.
    pub fn circuit(circuit: Circuit) -> Self {
        Workload::Generic(circuit)
    }

    /// A qsim workload with a uniform rotation angle.
    pub fn pauli_strings(strings: Vec<PauliString>, theta: f64) -> Self {
        Workload::Qsim(strings.into_iter().map(|s| (s, theta)).collect())
    }

    /// A qsim workload with per-string angles.
    pub fn weighted_paulis(pairs: Vec<(PauliString, f64)>) -> Self {
        Workload::Qsim(pairs)
    }

    /// A bare QAOA cost layer: `ZZ(γ)` on every edge, no mixer.
    pub fn qaoa_cost_layer(num_qubits: u32, edges: Vec<(u32, u32)>, gamma: f64) -> Self {
        Workload::Qaoa(QaoaWorkload {
            num_qubits,
            edges,
            gammas: vec![gamma],
            betas: vec![],
        })
    }

    /// A full depth-1 QAOA round (Hadamard prologue, cost layer, mixer).
    pub fn qaoa_round(num_qubits: u32, edges: Vec<(u32, u32)>, gamma: f64, beta: f64) -> Self {
        Workload::Qaoa(QaoaWorkload {
            num_qubits,
            edges,
            gammas: vec![gamma],
            betas: vec![beta],
        })
    }

    /// A depth-`p` QAOA program (`gammas.len()` rounds).
    pub fn qaoa_rounds(
        num_qubits: u32,
        edges: Vec<(u32, u32)>,
        gammas: Vec<f64>,
        betas: Vec<f64>,
    ) -> Self {
        Workload::Qaoa(QaoaWorkload {
            num_qubits,
            edges,
            gammas,
            betas,
        })
    }

    /// A QEC workload: `rounds` stabilizer-phase rounds of the
    /// distance-`distance` rotated surface code at angle `theta`.
    pub fn surface_code(distance: u32, rounds: u32, theta: f64) -> Self {
        Workload::Qec(QecWorkload {
            distance,
            rounds,
            theta,
        })
    }

    /// The router this workload compiles on.
    pub fn router(&self) -> RouterTag {
        match self {
            Workload::Generic(_) => RouterTag::Generic,
            Workload::Qsim(_) => RouterTag::Qsim,
            Workload::Qaoa(_) => RouterTag::Qaoa,
            Workload::Qec(_) => RouterTag::Qec,
        }
    }

    /// Data-register width the workload needs.
    pub fn num_qubits(&self) -> u32 {
        match self {
            Workload::Generic(circuit) => circuit.num_qubits(),
            Workload::Qsim(strings) => strings
                .iter()
                .map(|(s, _)| s.num_qubits() as u32)
                .max()
                .unwrap_or(1),
            Workload::Qaoa(q) => q.num_qubits,
            Workload::Qec(q) => q.distance * q.distance,
        }
    }

    /// The FPQA configuration this workload resolves to: `cols` SLM
    /// columns, or the smallest square array holding the register.
    ///
    /// QEC workloads ignore `cols`: the surface-code grid is inherently a
    /// `d×d` data array, and the parallel-wave scheduler needs a
    /// `(d+1)×(d+1)` AOD grid (one cross per plaquette, plaquette rows and
    /// columns span `−1..d−1`).
    pub fn config(&self, cols: Option<usize>) -> FpqaConfig {
        if let Workload::Qec(q) = self {
            let d = (q.distance as usize).max(1);
            return FpqaConfig::square(d).with_aod_grid(d + 1, d + 1);
        }
        let n = self.num_qubits().max(1);
        match cols {
            Some(cols) => FpqaConfig::for_qubits(n, cols.max(1)),
            None => FpqaConfig::square_for(n),
        }
    }

    /// Shape checks the routers themselves cannot express (they would
    /// panic or silently misroute).
    ///
    /// # Errors
    ///
    /// [`CompileError::InvalidWorkload`] describing the malformation.
    pub fn validate(&self) -> Result<(), CompileError> {
        let invalid = |m: &str| Err(CompileError::InvalidWorkload(m.into()));
        match self {
            Workload::Generic(_) => Ok(()),
            Workload::Qsim(strings) => {
                if strings.is_empty() {
                    return invalid("qsim request needs at least one Pauli string");
                }
                for (_, theta) in strings {
                    if !theta.is_finite() {
                        return invalid("qsim angles must be finite");
                    }
                }
                Ok(())
            }
            Workload::Qaoa(q) => {
                if q.num_qubits == 0 {
                    return invalid("qaoa request needs at least one qubit");
                }
                if q.gammas.is_empty() {
                    return invalid("qaoa request needs at least one gamma");
                }
                if !q.betas.is_empty() && q.betas.len() != q.gammas.len() {
                    return Err(CompileError::InvalidWorkload(format!(
                        "qaoa betas ({}) must be empty or match gammas ({})",
                        q.betas.len(),
                        q.gammas.len()
                    )));
                }
                if q.betas.is_empty() && q.gammas.len() != 1 {
                    return invalid("bare qaoa cost layers take exactly one gamma");
                }
                if q.gammas.iter().chain(&q.betas).any(|a| !a.is_finite()) {
                    return invalid("qaoa angles must be finite");
                }
                Ok(())
            }
            Workload::Qec(q) => {
                if q.distance < 2 {
                    return Err(CompileError::InvalidWorkload(format!(
                        "qec distance must be at least 2, got {}",
                        q.distance
                    )));
                }
                if q.rounds == 0 {
                    return invalid("qec request needs at least one round");
                }
                if !q.theta.is_finite() {
                    return invalid("qec theta must be finite");
                }
                Ok(())
            }
        }
    }
}

/// QAOA options in *request* form: `None` fields defer to the router's
/// defaults without baking the default values into cache fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QaoaOptions {
    /// Anchor-bucket search width (`None` = router default).
    pub anchor_candidates: Option<usize>,
    /// Column-extension toggle (`None` = router default).
    pub column_extension: Option<bool>,
}

impl QaoaOptions {
    /// Resolves against the router defaults.
    pub fn resolve(self) -> QaoaRouterOptions {
        let defaults = QaoaRouterOptions::default();
        QaoaRouterOptions {
            anchor_candidates: self.anchor_candidates.unwrap_or(defaults.anchor_candidates),
            column_extension: self.column_extension.unwrap_or(defaults.column_extension),
        }
    }
}

impl From<QaoaRouterOptions> for QaoaOptions {
    fn from(options: QaoaRouterOptions) -> Self {
        QaoaOptions {
            anchor_candidates: Some(options.anchor_candidates),
            column_extension: Some(options.column_extension),
        }
    }
}

/// QEC options in *request* form: `None` fields defer to the router's
/// defaults without baking the default values into cache fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QecOptions {
    /// Parallel-wave scheduling toggle (`None` = router default, which is
    /// on). When off — or when the AOD grid is too small — every check is
    /// routed serially; the compiled schedule differs but the unitary is
    /// identical.
    pub parallel_waves: Option<bool>,
}

impl QecOptions {
    /// Resolves against the router defaults.
    pub fn resolve(self) -> QecRouterOptions {
        let defaults = QecRouterOptions::default();
        QecRouterOptions {
            parallel_waves: self.parallel_waves.unwrap_or(defaults.parallel_waves),
        }
    }
}

impl From<QecRouterOptions> for QecOptions {
    fn from(options: QecRouterOptions) -> Self {
        QecOptions {
            parallel_waves: Some(options.parallel_waves),
        }
    }
}

/// Per-router options as one typed enum — the single options channel of
/// [`CompileOptions`] (and of service requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterOptions {
    /// Options for the generic router.
    Generic(GenericRouterOptions),
    /// Options for the qsim router.
    Qsim(QsimRouterOptions),
    /// Options for the QAOA router (request form).
    Qaoa(QaoaOptions),
    /// Options for the QEC router (request form).
    Qec(QecOptions),
}

impl RouterOptions {
    /// The router family these options belong to.
    pub fn tag(&self) -> RouterTag {
        match self {
            RouterOptions::Generic(_) => RouterTag::Generic,
            RouterOptions::Qsim(_) => RouterTag::Qsim,
            RouterOptions::Qaoa(_) => RouterTag::Qaoa,
            RouterOptions::Qec(_) => RouterTag::Qec,
        }
    }
}

impl From<GenericRouterOptions> for RouterOptions {
    fn from(options: GenericRouterOptions) -> Self {
        RouterOptions::Generic(options)
    }
}

impl From<QsimRouterOptions> for RouterOptions {
    fn from(options: QsimRouterOptions) -> Self {
        RouterOptions::Qsim(options)
    }
}

impl From<QaoaOptions> for RouterOptions {
    fn from(options: QaoaOptions) -> Self {
        RouterOptions::Qaoa(options)
    }
}

impl From<QaoaRouterOptions> for RouterOptions {
    fn from(options: QaoaRouterOptions) -> Self {
        RouterOptions::Qaoa(options.into())
    }
}

impl From<QecOptions> for RouterOptions {
    fn from(options: QecOptions) -> Self {
        RouterOptions::Qec(options)
    }
}

impl From<QecRouterOptions> for RouterOptions {
    fn from(options: QecRouterOptions) -> Self {
        RouterOptions::Qec(options.into())
    }
}

/// The unified compilation error: everything that can go wrong between a
/// [`Workload`] and a validated [`CompiledProgram`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The workload is malformed (caught before routing).
    InvalidWorkload(String),
    /// [`CompileOptions::router_options`] belong to a different router
    /// than the workload's own.
    OptionsMismatch {
        /// The family of the provided options.
        options: RouterTag,
        /// The workload's router.
        router: RouterTag,
    },
    /// The router rejected the workload.
    Route(RouteError),
    /// The routed schedule failed geometric validation
    /// (with [`CompileOptions::validate`] enabled).
    Validate(ValidateError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Wire-stable: `qpilotd` error lines carry this rendering.
            CompileError::InvalidWorkload(m) => write!(f, "invalid request: {m}"),
            CompileError::OptionsMismatch { options, router } => {
                write!(
                    f,
                    "`{options}` router options passed to the `{router}` router"
                )
            }
            CompileError::Route(e) => write!(f, "{e}"),
            CompileError::Validate(e) => write!(f, "schedule validation failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Route(e) => Some(e),
            CompileError::Validate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouteError> for CompileError {
    fn from(e: RouteError) -> Self {
        CompileError::Route(e)
    }
}

impl From<ValidateError> for CompileError {
    fn from(e: ValidateError) -> Self {
        CompileError::Validate(e)
    }
}

/// The checks every request passes before routing, in this order: the
/// workload's shape ([`Workload::validate`]), then that `options`, when
/// given, belong to the workload's router. [`Compiler::compile`] runs
/// them, and the serving layer runs them before it queues a request.
///
/// # Errors
///
/// [`CompileError::InvalidWorkload`] or [`CompileError::OptionsMismatch`].
pub fn check_request(
    workload: &Workload,
    options: Option<&RouterOptions>,
) -> Result<(), CompileError> {
    workload.validate()?;
    match options {
        Some(options) if options.tag() != workload.router() => Err(CompileError::OptionsMismatch {
            options: options.tag(),
            router: workload.router(),
        }),
        _ => Ok(()),
    }
}

/// Builder-style options for [`Compiler`].
///
/// ```
/// use qpilot_core::compile::CompileOptions;
/// use qpilot_core::generic::GenericRouterOptions;
///
/// let options = CompileOptions::new()
///     .router_options(GenericRouterOptions { stage_cap: Some(2) })
///     .validate(true);
/// assert!(options.validate);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompileOptions {
    /// Per-router options (`None` = that router's defaults).
    pub router_options: Option<RouterOptions>,
    /// Replay the routed schedule through the geometric validator and
    /// fail compilation on any violation.
    pub validate: bool,
    /// Lower the schedule to a plain circuit over data ⊗ ancilla qubits
    /// (for simulation), returned in [`CompileOutput::lowered`].
    pub lower: bool,
    /// Deadline token polled at stage boundaries inside the routers;
    /// the default token has no deadline and never fires. **Not** part
    /// of the request's content identity: two requests that differ only
    /// in their token share a fingerprint.
    pub cancel: CancelToken,
}

impl CompileOptions {
    /// Default options: router defaults, no validation or lowering.
    pub fn new() -> Self {
        CompileOptions::default()
    }

    /// Sets per-router options.
    pub fn router_options(mut self, options: impl Into<RouterOptions>) -> Self {
        self.router_options = Some(options.into());
        self
    }

    /// Toggles post-route geometric validation.
    pub fn validate(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// Toggles lowering to a simulation circuit.
    pub fn lower(mut self, on: bool) -> Self {
        self.lower = on;
        self
    }

    /// Installs a compile deadline token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }
}

/// A successful [`Compiler::compile`]: the routed program plus whatever
/// optional pipeline stages ran. Derefs to the [`CompiledProgram`].
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The routed program (schedule + stats).
    pub program: CompiledProgram,
    /// The validator's report, when [`CompileOptions::validate`] is set.
    pub validation: Option<ValidationReport>,
    /// The lowered simulation circuit, when [`CompileOptions::lower`] is
    /// set.
    pub lowered: Option<Circuit>,
}

impl CompileOutput {
    /// Unwraps the routed program.
    pub fn into_program(self) -> CompiledProgram {
        self.program
    }
}

impl std::ops::Deref for CompileOutput {
    type Target = CompiledProgram;

    fn deref(&self) -> &CompiledProgram {
        &self.program
    }
}

/// The unified compile pipeline: workload in, schedule out.
///
/// Holds the [`CompileOptions`] and compiles each [`Workload`] on its
/// family's router, built per compile from those options — a router is
/// nothing but its options and a deadline token. A `Compiler` is cheap
/// to construct and reusable across requests of any family — the
/// serving layer keeps one per worker thread.
///
/// # Example
///
/// ```
/// use qpilot_circuit::Circuit;
/// use qpilot_core::compile::{CompileOptions, Compiler, Workload};
/// use qpilot_core::FpqaConfig;
///
/// let mut compiler = Compiler::with_options(CompileOptions::new().validate(true));
/// let mut c = Circuit::new(4);
/// c.cz(0, 1).cz(2, 3);
/// let out = compiler
///     .compile(&Workload::circuit(c), &FpqaConfig::square(2))
///     .unwrap();
/// assert!(out.validation.is_some());
/// assert!(!out.schedule().is_empty());
/// ```
pub struct Compiler {
    options: CompileOptions,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler with default options.
    pub fn new() -> Self {
        Compiler::with_options(CompileOptions::new())
    }

    /// A compiler with explicit options.
    pub fn with_options(options: CompileOptions) -> Self {
        Compiler { options }
    }

    /// The current options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Replaces the options (the per-request reconfiguration path).
    pub fn set_options(&mut self, options: CompileOptions) {
        self.options = options;
    }

    /// Runs the full pipeline: the request checks ([`check_request`]),
    /// the deadline check, routing on the workload's own router
    /// (decompose + route), then the optional validate / lower stages.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`]; see the variants for the failing stage.
    pub fn compile(
        &mut self,
        workload: &Workload,
        config: &FpqaConfig,
    ) -> Result<CompileOutput, CompileError> {
        let options = self.options.router_options;
        check_request(workload, options.as_ref())?;
        let cancel = self.options.cancel;
        cancel.check()?;
        // `check_request` ruled out another family's options, so each
        // arm sees its own options or none (the router's defaults).
        let program = match workload {
            Workload::Generic(circuit) => {
                let mut router = match options {
                    Some(RouterOptions::Generic(o)) => GenericRouter::with_options(o),
                    _ => GenericRouter::new(),
                };
                router.cancel = cancel;
                router.route(circuit, config)?
            }
            Workload::Qsim(strings) => {
                let mut router = match options {
                    Some(RouterOptions::Qsim(o)) => QsimRouter::with_options(o),
                    _ => QsimRouter::new(),
                };
                router.cancel = cancel;
                router.route_weighted(strings, config)?
            }
            Workload::Qaoa(q) => {
                let mut router = match options {
                    Some(RouterOptions::Qaoa(o)) => QaoaRouter::with_options(o.resolve()),
                    _ => QaoaRouter::new(),
                };
                router.cancel = cancel;
                if q.betas.is_empty() {
                    router.route_edges(q.num_qubits, &q.edges, q.gammas[0], config)?
                } else {
                    router.route_qaoa_rounds(q.num_qubits, &q.edges, &q.gammas, &q.betas, config)?
                }
            }
            Workload::Qec(q) => {
                let mut router = match options {
                    Some(RouterOptions::Qec(o)) => QecRouter::with_options(o.resolve()),
                    _ => QecRouter::new(),
                };
                router.cancel = cancel;
                router.route_rounds(q, config)?
            }
        };
        let validation = if self.options.validate {
            Some(validate_schedule(program.schedule(), config)?)
        } else {
            None
        };
        let lowered = self.options.lower.then(|| program.schedule().to_circuit());
        Ok(CompileOutput {
            program,
            validation,
            lowered,
        })
    }
}

/// One-shot convenience: compiles `workload` with default options and
/// returns the routed program. Equivalent to the matching direct router
/// call (byte-identical schedules).
///
/// # Errors
///
/// See [`Compiler::compile`].
pub fn compile(workload: &Workload, config: &FpqaConfig) -> Result<CompiledProgram, CompileError> {
    Compiler::new()
        .compile(workload, config)
        .map(CompileOutput::into_program)
}

fn pauli_byte(p: Pauli) -> u8 {
    match p {
        Pauli::I => 0,
        Pauli::X => 1,
        Pauli::Y => 2,
        Pauli::Z => 3,
    }
}

fn hash_opt_usize(h: &mut StableHasher, v: Option<usize>) {
    match v {
        None => h.write_u8(0),
        Some(n) => {
            h.write_u8(1);
            h.write_usize(n);
        }
    }
}

/// The canonical content fingerprint of a compilation: router tag ⊕
/// workload ⊕ architecture ⊕ per-router options, in the
/// [`FINGERPRINT_DOMAIN`] (`qpilot.compile/v2`) domain. Platform- and
/// build-stable; the serving layer uses it as the schedule cache key.
///
/// Requests for different routers — or the same router with different
/// options — never collide: a per-family tag byte namespaces each
/// router's option encoding. Options are hashed in request form, so
/// "defer to the default" and "explicitly the default value" are
/// distinct keys. `options` of a foreign family are ignored (such a
/// request fails compilation before any cache is consulted).
pub fn fingerprint(
    workload: &Workload,
    options: Option<&RouterOptions>,
    config: &FpqaConfig,
) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_str(FINGERPRINT_DOMAIN);
    config.fingerprint_into(&mut h);
    match workload {
        Workload::Generic(circuit) => {
            let stage_cap = match options {
                Some(RouterOptions::Generic(o)) => o.stage_cap,
                _ => None,
            };
            h.write_u8(0);
            circuit.fingerprint_into(&mut h);
            hash_opt_usize(&mut h, stage_cap);
        }
        Workload::Qsim(strings) => {
            let max_copies = match options {
                Some(RouterOptions::Qsim(o)) => o.max_copies,
                _ => None,
            };
            h.write_u8(1);
            h.write_usize(strings.len());
            for (s, theta) in strings {
                h.write_u32(s.num_qubits() as u32);
                for &p in s.paulis() {
                    h.write_u8(pauli_byte(p));
                }
                h.write_f64(*theta);
            }
            hash_opt_usize(&mut h, max_copies);
        }
        Workload::Qaoa(q) => {
            let opts = match options {
                Some(RouterOptions::Qaoa(o)) => *o,
                _ => QaoaOptions::default(),
            };
            h.write_u8(2);
            h.write_u32(q.num_qubits);
            h.write_usize(q.edges.len());
            for &(a, b) in &q.edges {
                h.write_u64((u64::from(a) << 32) | u64::from(b));
            }
            h.write_usize(q.gammas.len());
            for &g in &q.gammas {
                h.write_f64(g);
            }
            h.write_usize(q.betas.len());
            for &b in &q.betas {
                h.write_f64(b);
            }
            hash_opt_usize(&mut h, opts.anchor_candidates);
            match opts.column_extension {
                None => h.write_u8(0),
                Some(false) => h.write_u8(1),
                Some(true) => h.write_u8(2),
            }
        }
        Workload::Qec(q) => {
            let opts = match options {
                Some(RouterOptions::Qec(o)) => *o,
                _ => QecOptions::default(),
            };
            h.write_u8(3);
            h.write_u32(q.distance);
            h.write_u32(q.rounds);
            h.write_f64(q.theta);
            match opts.parallel_waves {
                None => h.write_u8(0),
                Some(false) => h.write_u8(1),
                Some(true) => h.write_u8(2),
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::schedule_to_json;

    fn small_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 1).cz(2, 3).cz(1, 2);
        c
    }

    #[test]
    fn auto_dispatch_reaches_all_three_routers() {
        let mut compiler = Compiler::new();
        let cfg = FpqaConfig::square_for(4);
        let generic = compiler
            .compile(&Workload::circuit(small_circuit()), &cfg)
            .unwrap();
        assert!(generic.stats().two_qubit_gates > 0);
        let qsim = compiler
            .compile(
                &Workload::pauli_strings(vec!["ZZIZ".parse().unwrap()], 0.4),
                &cfg,
            )
            .unwrap();
        assert!(qsim.stats().two_qubit_depth > 0);
        let qaoa = compiler
            .compile(
                &Workload::qaoa_round(4, vec![(0, 1), (2, 3)], 0.7, 0.3),
                &cfg,
            )
            .unwrap();
        assert!(qaoa.stats().two_qubit_gates > 0);
        let qec_workload = Workload::surface_code(2, 1, 0.4);
        let qec = compiler
            .compile(&qec_workload, &qec_workload.config(None))
            .unwrap();
        assert!(qec.stats().two_qubit_gates > 0);
        assert_eq!(qec.schedule().num_ancillas, 3);
    }

    #[test]
    fn pipeline_output_matches_direct_router_bytes() {
        let cfg = FpqaConfig::square_for(4);
        let via_pipeline = compile(&Workload::circuit(small_circuit()), &cfg).unwrap();
        let direct = GenericRouter::new().route(&small_circuit(), &cfg).unwrap();
        assert_eq!(
            schedule_to_json(via_pipeline.schedule()),
            schedule_to_json(direct.schedule())
        );
    }

    #[test]
    fn foreign_options_are_rejected() {
        // One mismatched pair per family: every workload's own arm must
        // refuse another family's options before routing.
        let cfg = FpqaConfig::square_for(4);
        let qsim_options = RouterOptions::from(QsimRouterOptions {
            max_copies: Some(2),
        });
        let generic_options = RouterOptions::from(GenericRouterOptions { stage_cap: Some(2) });
        let qec_options = RouterOptions::from(QecOptions::default());
        let qaoa_options = RouterOptions::from(QaoaOptions::default());
        for (workload, options) in [
            (Workload::circuit(small_circuit()), qsim_options),
            (
                Workload::pauli_strings(vec!["ZZIZ".parse().unwrap()], 0.4),
                generic_options,
            ),
            (Workload::qaoa_cost_layer(4, vec![(0, 1)], 0.7), qec_options),
            (Workload::surface_code(2, 1, 0.4), qaoa_options),
        ] {
            let err = Compiler::with_options(CompileOptions::new().router_options(options))
                .compile(&workload, &cfg)
                .unwrap_err();
            assert_eq!(
                err,
                CompileError::OptionsMismatch {
                    options: options.tag(),
                    router: workload.router(),
                }
            );
        }
    }

    #[test]
    fn options_reset_between_requests() {
        // A capped compile followed by a default compile on the same
        // Compiler must not leak the cap into the second request.
        let cfg = FpqaConfig::square_for(4);
        let workload = Workload::circuit(small_circuit());
        let mut compiler = Compiler::with_options(
            CompileOptions::new().router_options(GenericRouterOptions { stage_cap: Some(1) }),
        );
        let capped = compiler.compile(&workload, &cfg).unwrap();
        compiler.set_options(CompileOptions::new());
        let free = compiler.compile(&workload, &cfg).unwrap();
        let direct = GenericRouter::new().route(&small_circuit(), &cfg).unwrap();
        assert_eq!(
            schedule_to_json(free.schedule()),
            schedule_to_json(direct.schedule())
        );
        assert!(capped.stats().two_qubit_depth >= free.stats().two_qubit_depth);
    }

    #[test]
    fn validate_and_lower_toggles() {
        let cfg = FpqaConfig::square_for(4);
        let mut compiler = Compiler::with_options(CompileOptions::new().validate(true).lower(true));
        let out = compiler
            .compile(&Workload::circuit(small_circuit()), &cfg)
            .unwrap();
        let report = out.validation.as_ref().expect("validation ran");
        assert_eq!(report.stages, out.program.schedule().num_stages());
        let lowered = out.lowered.as_ref().expect("lowering ran");
        assert_eq!(lowered, &out.program.schedule().to_circuit());
    }

    #[test]
    fn invalid_workloads_fail_before_routing() {
        let mut compiler = Compiler::new();
        let cfg = FpqaConfig::square_for(4);
        for (workload, needle) in [
            (Workload::Qsim(vec![]), "at least one Pauli string"),
            (
                Workload::qaoa_cost_layer(0, vec![], 0.7),
                "at least one qubit",
            ),
            (
                Workload::qaoa_rounds(3, vec![(0, 1)], vec![0.1, 0.2], vec![0.3]),
                "must be empty or match",
            ),
            (
                Workload::qaoa_rounds(3, vec![(0, 1)], vec![0.1, 0.2], vec![]),
                "exactly one gamma",
            ),
            (
                Workload::pauli_strings(vec!["ZZ".parse().unwrap()], f64::NAN),
                "must be finite",
            ),
            (Workload::surface_code(1, 1, 0.4), "at least 2"),
            (Workload::surface_code(3, 0, 0.4), "at least one round"),
            (
                Workload::surface_code(3, 1, f64::INFINITY),
                "must be finite",
            ),
        ] {
            let err = compiler.compile(&workload, &cfg).unwrap_err();
            let CompileError::InvalidWorkload(m) = &err else {
                panic!("expected InvalidWorkload, got {err:?}");
            };
            assert!(m.contains(needle), "{m}");
        }
    }

    #[test]
    fn route_errors_surface_unchanged() {
        let mut compiler = Compiler::new();
        let err = compiler
            .compile(
                &Workload::circuit(Circuit::new(64)),
                &FpqaConfig::square_for(4),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CompileError::Route(RouteError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn fingerprints_are_distinct_across_families_and_options() {
        let cfg = FpqaConfig::square_for(2);
        let mut c = Circuit::new(2);
        c.zz(0, 1, 0.5);
        let generic = Workload::circuit(c);
        let qsim = Workload::pauli_strings(vec!["ZZ".parse().unwrap()], 0.5);
        let qaoa = Workload::qaoa_cost_layer(2, vec![(0, 1)], 0.5);
        let qec = Workload::surface_code(2, 1, 0.5);
        let fps = [
            fingerprint(&generic, None, &cfg),
            fingerprint(&qsim, None, &cfg),
            fingerprint(&qaoa, None, &cfg),
            fingerprint(&qec, None, &cfg),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "families {i} and {j} collide");
            }
        }
        // Qec option states split keys within the family.
        let waves_off = RouterOptions::Qec(QecOptions {
            parallel_waves: Some(false),
        });
        assert_ne!(fingerprint(&qec, Some(&waves_off), &cfg), fps[3]);
        // Options split keys within a family.
        let capped = RouterOptions::Generic(GenericRouterOptions { stage_cap: Some(1) });
        assert_ne!(fingerprint(&generic, Some(&capped), &cfg), fps[0]);
        // Foreign options do not shift the key.
        let foreign = RouterOptions::Qsim(QsimRouterOptions {
            max_copies: Some(1),
        });
        assert_eq!(fingerprint(&generic, Some(&foreign), &cfg), fps[0]);
    }

    #[test]
    fn workload_config_resolution() {
        let w = Workload::circuit(Circuit::new(6));
        assert_eq!(w.config(None), FpqaConfig::square_for(6));
        assert_eq!(w.config(Some(3)), FpqaConfig::for_qubits(6, 3));
        assert_eq!(w.config(Some(0)), FpqaConfig::for_qubits(6, 1));
    }
}
