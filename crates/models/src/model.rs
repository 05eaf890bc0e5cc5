//! The event-synchronized compositional formalism.

use std::collections::HashMap;
use std::fmt;

use mdl_core::{CoreError, DecomposableVector, MdMrp};
use mdl_md::{KroneckerExpr, MdMatrix, SparseFactor};
use mdl_mdd::Mdd;

/// One component of a composed model — one level of the generated matrix
/// diagram.
#[derive(Debug, Clone)]
pub struct Component {
    /// Human-readable name.
    pub name: String,
    /// Number of local states.
    pub states: usize,
    /// Local state at time 0.
    pub initial: u32,
}

/// One timed event: a rate and, per level, an optional sparse local matrix
/// (probability/indicator weights; `None` = the level is untouched).
///
/// The event contributes the Kronecker term `rate · ⊗_i W_i` to the
/// composed state-transition rate matrix.
#[derive(Debug, Clone)]
pub struct Event {
    /// Human-readable name.
    pub name: String,
    /// Base rate `λ_e`.
    pub rate: f64,
    /// One factor slot per component.
    pub factors: Vec<Option<SparseFactor>>,
}

/// Errors from model construction and state-space generation.
#[derive(Debug)]
#[non_exhaustive]
pub enum ModelError {
    /// An event's factor list or factor sizes do not match the components.
    Malformed {
        /// Description of the mismatch.
        detail: String,
    },
    /// State-space exploration exceeded the configured state bound.
    TooManyStates {
        /// The configured bound that was exceeded.
        bound: usize,
    },
    /// Errors from the symbolic layers.
    Core(CoreError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Malformed { detail } => write!(f, "malformed model: {detail}"),
            ModelError::TooManyStates { bound } => {
                write!(
                    f,
                    "reachable state space exceeds the bound of {bound} states"
                )
            }
            ModelError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ModelError {
    fn from(e: CoreError) -> Self {
        ModelError::Core(e)
    }
}

impl From<mdl_md::MdError> for ModelError {
    fn from(e: mdl_md::MdError) -> Self {
        ModelError::Core(CoreError::Md(e))
    }
}

/// Model failures as pipeline build-stage errors: a wrapped core error
/// passes through, anything else becomes [`CoreError::Build`], whose
/// `Display` is the original message.
impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        match e {
            ModelError::Core(c) => c,
            other => CoreError::Build {
                detail: other.to_string(),
            },
        }
    }
}

/// A compositional Markov model: components (one per MD level) plus
/// events. See the [crate-level docs](crate).
#[derive(Debug, Clone, Default)]
pub struct ComposedModel {
    components: Vec<Component>,
    events: Vec<Event>,
    /// Safety bound for explicit reachability exploration.
    max_states: usize,
}

impl ComposedModel {
    /// Creates an empty model with the default state bound (50 million).
    pub fn new() -> Self {
        ComposedModel {
            components: Vec::new(),
            events: Vec::new(),
            max_states: 50_000_000,
        }
    }

    /// Overrides the reachability state bound.
    pub fn with_max_states(mut self, bound: usize) -> Self {
        self.max_states = bound;
        self
    }

    /// Adds a component (a level); returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `states == 0` or `initial` is out of range.
    pub fn add_component(&mut self, name: impl Into<String>, states: usize, initial: u32) -> usize {
        assert!(states > 0, "component must have states");
        assert!((initial as usize) < states, "initial state out of range");
        self.components.push(Component {
            name: name.into(),
            states,
            initial,
        });
        self.components.len() - 1
    }

    /// Adds an event.
    ///
    /// # Errors
    ///
    /// [`ModelError::Malformed`] on arity or size mismatches, or a
    /// non-finite/negative rate.
    pub fn add_event(
        &mut self,
        name: impl Into<String>,
        rate: f64,
        factors: Vec<Option<SparseFactor>>,
    ) -> Result<(), ModelError> {
        let name = name.into();
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ModelError::Malformed {
                detail: format!("event {name}: bad rate {rate}"),
            });
        }
        if factors.len() != self.components.len() {
            return Err(ModelError::Malformed {
                detail: format!(
                    "event {name}: {} factor slots for {} components",
                    factors.len(),
                    self.components.len()
                ),
            });
        }
        for (l, f) in factors.iter().enumerate() {
            if let Some(f) = f {
                if f.size() != self.components[l].states {
                    return Err(ModelError::Malformed {
                        detail: format!(
                            "event {name}: factor size {} at level {l}, component has {}",
                            f.size(),
                            self.components[l].states
                        ),
                    });
                }
                // Weights multiply the event rate; a NaN or negative one
                // silently poisons the generator, so reject it here where
                // the event and component are still nameable.
                if let Some((row, col, w)) =
                    f.iter().find(|&(_, _, w)| !(w.is_finite() && w >= 0.0))
                {
                    return Err(ModelError::Malformed {
                        detail: format!(
                            "event {name}: invalid weight {w} at ({row}, {col}) in component {}",
                            self.components[l].name
                        ),
                    });
                }
            }
        }
        self.events.push(Event {
            name,
            rate,
            factors,
        });
        Ok(())
    }

    /// Re-rates the named event in place — the parameter-sweep primitive.
    ///
    /// Rates must stay positive (they are validated exactly like
    /// [`ComposedModel::add_event`]), which keeps the reachable state
    /// space rate-invariant: a reachability MDD computed before the
    /// re-rate is still exact afterwards, so sweeps compute it once and
    /// rebuild each point via
    /// [`ComposedModel::build_md_mrp_with_reach`].
    ///
    /// # Errors
    ///
    /// [`ModelError::Malformed`] when no event has that name or the rate
    /// is non-finite or non-positive.
    pub fn set_event_rate(&mut self, name: &str, rate: f64) -> Result<(), ModelError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ModelError::Malformed {
                detail: format!("event {name}: bad rate {rate}"),
            });
        }
        match self.events.iter_mut().find(|e| e.name == name) {
            Some(event) => {
                event.rate = rate;
                Ok(())
            }
            None => Err(ModelError::Malformed {
                detail: format!("no event named {name}"),
            }),
        }
    }

    /// The components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Local state-space sizes per level.
    pub fn sizes(&self) -> Vec<usize> {
        self.components.iter().map(|c| c.states).collect()
    }

    /// The global initial state.
    pub fn initial_state(&self) -> Vec<u32> {
        self.components.iter().map(|c| c.initial).collect()
    }

    /// The composed rate matrix as a Kronecker expression, with term
    /// aggregation applied (events identical at all-but-one level are
    /// merged — this is what keeps the MD node counts per level small).
    pub fn kronecker(&self) -> KroneckerExpr {
        let mut expr = KroneckerExpr::new(self.sizes());
        for e in &self.events {
            expr.add_term(e.rate, e.factors.clone());
        }
        expr.aggregate()
    }

    /// Explicit reachability exploration from the initial state, returning
    /// the reachable set as an MDD (the role of the symbolic state-space
    /// generator in the paper's toolchain).
    ///
    /// # Errors
    ///
    /// [`ModelError::TooManyStates`] if the bound is exceeded.
    pub fn reachable(&self) -> Result<Mdd, ModelError> {
        let sizes = self.sizes();
        let num_levels = sizes.len();

        // Per event and level: factor rows grouped for O(1) successor lookup.
        type RowMap = HashMap<u32, Vec<u32>>;
        let event_rows: Vec<Vec<Option<RowMap>>> = self
            .events
            .iter()
            .map(|e| {
                e.factors
                    .iter()
                    .map(|f| {
                        f.as_ref().map(|f| {
                            let mut rows: RowMap = HashMap::new();
                            for (r, c, v) in f.iter() {
                                if v != 0.0 {
                                    rows.entry(r).or_default().push(c);
                                }
                            }
                            rows
                        })
                    })
                    .collect()
            })
            .collect();

        // Mixed-radix packing for the visited set.
        let mut radix = vec![1u128; num_levels];
        for l in (0..num_levels.saturating_sub(1)).rev() {
            radix[l] = radix[l + 1] * sizes[l + 1] as u128;
        }
        let pack = |s: &[u32]| -> u128 { s.iter().zip(&radix).map(|(&v, &r)| v as u128 * r).sum() };

        let initial = self.initial_state();
        let mut visited: HashMap<u128, ()> = HashMap::new();
        visited.insert(pack(&initial), ());
        let mut frontier: Vec<Vec<u32>> = vec![initial];
        let mut all: Vec<Vec<u32>> = vec![frontier[0].clone()];

        let mut options: Vec<Vec<u32>> = vec![Vec::new(); num_levels];
        while let Some(state) = frontier.pop() {
            for rows in &event_rows {
                // Per-level successor options; an empty list disables the event.
                let mut enabled = true;
                for (l, rm) in rows.iter().enumerate() {
                    options[l].clear();
                    match rm {
                        None => options[l].push(state[l]),
                        Some(rm) => match rm.get(&state[l]) {
                            Some(cols) => options[l].extend_from_slice(cols),
                            None => {
                                enabled = false;
                                break;
                            }
                        },
                    }
                }
                if !enabled {
                    continue;
                }
                // Cross product of per-level options.
                let mut next = vec![0u32; num_levels];
                let mut idx = vec![0usize; num_levels];
                'outer: loop {
                    for l in 0..num_levels {
                        next[l] = options[l][idx[l]];
                    }
                    let key = pack(&next);
                    if let std::collections::hash_map::Entry::Vacant(e) = visited.entry(key) {
                        e.insert(());
                        if visited.len() > self.max_states {
                            return Err(ModelError::TooManyStates {
                                bound: self.max_states,
                            });
                        }
                        frontier.push(next.clone());
                        all.push(next.clone());
                    }
                    // Advance the mixed-radix option counter.
                    for l in (0..num_levels).rev() {
                        idx[l] += 1;
                        if idx[l] < options[l].len() {
                            continue 'outer;
                        }
                        idx[l] = 0;
                    }
                    break;
                }
            }
        }

        all.sort_unstable();
        all.dedup();
        Ok(Mdd::from_sorted_unique_tuples(sizes, &all))
    }

    /// Builds the symbolic MRP: matrix diagram from the aggregated
    /// Kronecker expression, MDD of reachable states, the given
    /// decomposable reward, and a point-mass initial distribution on the
    /// model's initial state.
    ///
    /// # Errors
    ///
    /// Propagates state-space and symbolic-layer errors.
    pub fn build_md_mrp(&self, reward: DecomposableVector) -> Result<MdMrp, ModelError> {
        let initial = DecomposableVector::point_mass(&self.sizes(), &self.initial_state())?;
        self.build_md_mrp_with_initial(reward, initial)
    }

    /// [`ComposedModel::build_md_mrp`] with an explicit (product-form)
    /// initial distribution instead of the point mass on the components'
    /// initial states — e.g. a class-uniform distribution for exact
    /// lumping.
    ///
    /// # Errors
    ///
    /// Propagates state-space and symbolic-layer errors (including
    /// validation that the distribution sums to 1 over reachable states).
    pub fn build_md_mrp_with_initial(
        &self,
        reward: DecomposableVector,
        initial: DecomposableVector,
    ) -> Result<MdMrp, ModelError> {
        let md = self.kronecker().to_md()?;
        let reach = self.reachable()?;
        let matrix = MdMatrix::new(md, reach)?;
        Ok(MdMrp::new(matrix, reward, initial)?)
    }

    /// [`ComposedModel::build_md_mrp`] with a precomputed reachability
    /// MDD instead of a fresh exploration. For sweeps: reachability is
    /// rate-invariant (rates are validated positive), so one
    /// [`ComposedModel::reachable`] result serves every re-rated variant
    /// of the model — exploration is usually the dominant build cost.
    ///
    /// The MDD's validity is the caller's obligation; structural
    /// mismatches (wrong level sizes) still error in the symbolic layer.
    ///
    /// # Errors
    ///
    /// Propagates symbolic-layer errors.
    pub fn build_md_mrp_with_reach(
        &self,
        reward: DecomposableVector,
        reach: Mdd,
    ) -> Result<MdMrp, ModelError> {
        let initial = DecomposableVector::point_mass(&self.sizes(), &self.initial_state())?;
        let md = self.kronecker().to_md()?;
        let matrix = MdMatrix::new(md, reach)?;
        Ok(MdMrp::new(matrix, reward, initial)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_linalg::RateMatrix;

    /// Two 2-state components with one synchronized toggle and one local
    /// event each.
    fn toy() -> ComposedModel {
        let mut m = ComposedModel::new();
        let a = m.add_component("a", 2, 0);
        let b = m.add_component("b", 2, 0);
        assert_eq!((a, b), (0, 1));
        let mut up = SparseFactor::new(2);
        up.push(0, 1, 1.0);
        let mut down = SparseFactor::new(2);
        down.push(1, 0, 1.0);
        // Synchronized: both move up together.
        m.add_event("sync_up", 2.0, vec![Some(up.clone()), Some(up)])
            .unwrap();
        // Local resets.
        m.add_event("a_down", 1.0, vec![Some(down.clone()), None])
            .unwrap();
        m.add_event("b_down", 1.5, vec![None, Some(down)]).unwrap();
        m
    }

    #[test]
    fn reachability_explores_all() {
        let m = toy();
        let reach = m.reachable().unwrap();
        // From (0,0): sync to (1,1); resets give (0,1) and (1,0).
        assert_eq!(reach.count(), 4);
    }

    #[test]
    fn kronecker_matches_reachable_dynamics() {
        let m = toy();
        let mrp = m
            .build_md_mrp(mdl_core::DecomposableVector::constant(&[2, 2], 1.0).unwrap())
            .unwrap();
        let flat = mrp.matrix().flatten();
        let reach = mrp.matrix().reach();
        // (0,0) -> (1,1) at rate 2.0.
        let from = reach.index_of(&[0, 0]).unwrap() as usize;
        let to = reach.index_of(&[1, 1]).unwrap() as usize;
        assert_eq!(flat.get(from, to), 2.0);
        // (1,1) -> (0,1) at 1.0 and (1,0) at 1.5.
        let s11 = reach.index_of(&[1, 1]).unwrap() as usize;
        assert_eq!(
            flat.get(s11, reach.index_of(&[0, 1]).unwrap() as usize),
            1.0
        );
        assert_eq!(
            flat.get(s11, reach.index_of(&[1, 0]).unwrap() as usize),
            1.5
        );
    }

    #[test]
    fn re_rated_model_reuses_reachability() {
        let mut m = toy();
        assert!(m.set_event_rate("no_such_event", 1.0).is_err());
        assert!(m.set_event_rate("sync_up", 0.0).is_err());
        assert!(m.set_event_rate("sync_up", f64::NAN).is_err());

        // Reach computed at the original rates stays exact after a
        // re-rate, and the rebuilt matrix is bit-identical to a from-
        // scratch build of the re-rated model.
        let reach = m.reachable().unwrap();
        m.set_event_rate("sync_up", 5.0).unwrap();
        let reward = mdl_core::DecomposableVector::constant(&[2, 2], 1.0).unwrap();
        let with_reach = m.build_md_mrp_with_reach(reward.clone(), reach).unwrap();
        let fresh = m.build_md_mrp(reward).unwrap();
        assert_eq!(
            with_reach
                .matrix()
                .flatten()
                .max_abs_diff(&fresh.matrix().flatten()),
            0.0
        );
        let reach = with_reach.matrix().reach();
        let from = reach.index_of(&[0, 0]).unwrap() as usize;
        let to = reach.index_of(&[1, 1]).unwrap() as usize;
        assert_eq!(with_reach.matrix().flatten().get(from, to), 5.0);
    }

    #[test]
    fn disabled_events_block_states() {
        let mut m = ComposedModel::new();
        m.add_component("only", 3, 0);
        let mut step = SparseFactor::new(3);
        step.push(0, 1, 1.0); // no way past state 1
        m.add_event("step", 1.0, vec![Some(step)]).unwrap();
        let reach = m.reachable().unwrap();
        assert_eq!(reach.count(), 2);
        assert!(!reach.contains(&[2]));
    }

    #[test]
    fn state_bound_enforced() {
        let mut m = ComposedModel::new().with_max_states(2);
        m.add_component("big", 10, 0);
        let mut step = SparseFactor::new(10);
        for s in 0..9 {
            step.push(s, s + 1, 1.0);
        }
        m.add_event("step", 1.0, vec![Some(step)]).unwrap();
        assert!(matches!(
            m.reachable(),
            Err(ModelError::TooManyStates { .. })
        ));
    }

    #[test]
    fn malformed_events_rejected() {
        let mut m = ComposedModel::new();
        m.add_component("a", 2, 0);
        assert!(m.add_event("no_rate", 0.0, vec![None]).is_err());
        assert!(m.add_event("bad_arity", 1.0, vec![None, None]).is_err());
        let wrong = SparseFactor::new(3);
        assert!(m.add_event("bad_size", 1.0, vec![Some(wrong)]).is_err());
    }

    #[test]
    fn invalid_factor_weights_rejected_with_context() {
        // Non-finite weights already panic in SparseFactor::push, so the
        // reachable invalid case is a negative weight.
        let mut m = ComposedModel::new();
        m.add_component("pump", 2, 0);
        let mut f = SparseFactor::new(2);
        f.push(0, 1, -0.5);
        let err = m.add_event("fail", 1.0, vec![Some(f)]).unwrap_err();
        let ModelError::Malformed { detail } = &err else {
            panic!("expected Malformed, got {err:?}");
        };
        assert!(detail.contains("fail"), "{detail}");
        assert!(detail.contains("pump"), "{detail}");
        assert!(detail.contains("-0.5"), "{detail}");
        // NaN and infinities in the rate itself are already rejected.
        let mut m = ComposedModel::new();
        m.add_component("pump", 2, 0);
        assert!(m.add_event("nan_rate", f64::NAN, vec![None]).is_err());
        assert!(m.add_event("inf_rate", f64::INFINITY, vec![None]).is_err());
    }

    #[test]
    fn branching_events_explore_all_branches() {
        let mut m = ComposedModel::new();
        m.add_component("c", 4, 0);
        let mut branch = SparseFactor::new(4);
        branch.push(0, 1, 0.3);
        branch.push(0, 2, 0.3);
        branch.push(0, 3, 0.4);
        m.add_event("branch", 1.0, vec![Some(branch)]).unwrap();
        let reach = m.reachable().unwrap();
        assert_eq!(reach.count(), 4);
    }

    #[test]
    fn row_sums_are_total_exit_rates() {
        let m = toy();
        let mrp = m
            .build_md_mrp(mdl_core::DecomposableVector::constant(&[2, 2], 1.0).unwrap())
            .unwrap();
        let sums = mrp.matrix().row_sums();
        let reach = mrp.matrix().reach();
        // State (0,0): only sync_up enabled -> 2.0.
        assert_eq!(sums[reach.index_of(&[0, 0]).unwrap() as usize], 2.0);
        // State (1,1): both resets -> 2.5.
        assert_eq!(sums[reach.index_of(&[1, 1]).unwrap() as usize], 2.5);
    }
}
