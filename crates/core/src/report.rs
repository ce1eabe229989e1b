//! Tabular reporting helpers shared by the examples and the benchmark
//! harness: evaluate all four engines on one case and format the paper's
//! comparison rows.

use crate::error::XProError;
use crate::generator::{Engine, XProGenerator};
use crate::instance::XProInstance;
use crate::partition::Evaluation;

/// Evaluation of every engine design on one instance.
#[derive(Clone, Debug)]
pub struct EngineComparison {
    /// Case symbol (e.g. "C1").
    pub case: String,
    /// `(engine, evaluation)` pairs in [`Engine::ALL`] order.
    pub engines: Vec<(Engine, Evaluation)>,
}

impl EngineComparison {
    /// Evaluates all four engines on an instance.
    ///
    /// # Errors
    ///
    /// Propagates [`XProGenerator::evaluate_engine`] failures.
    pub fn evaluate(case: impl Into<String>, instance: &XProInstance) -> Result<Self, XProError> {
        let generator = XProGenerator::new(instance);
        let engines = Engine::ALL
            .iter()
            .map(|&e| Ok((e, generator.evaluate_engine(e)?)))
            .collect::<Result<Vec<_>, XProError>>()?;
        Ok(EngineComparison {
            case: case.into(),
            engines,
        })
    }

    /// The evaluation of one engine.
    ///
    /// # Panics
    ///
    /// Panics if the engine is missing (never happens for
    /// [`EngineComparison::evaluate`] output).
    pub fn of(&self, engine: Engine) -> &Evaluation {
        &self
            .engines
            .iter()
            .find(|(e, _)| *e == engine)
            .expect("engine evaluated")
            .1
    }

    /// Battery-life improvement of the cross-end engine over another engine
    /// (>1 means cross-end lives longer).
    pub fn lifetime_gain_over(&self, engine: Engine) -> f64 {
        self.of(Engine::CrossEnd).sensor_battery_hours / self.of(engine).sensor_battery_hours
    }

    /// Relative delay reduction of the cross-end engine vs another engine
    /// (0.25 = 25 % faster).
    pub fn delay_reduction_over(&self, engine: Engine) -> f64 {
        let c = self.of(Engine::CrossEnd).delay.total_s();
        let other = self.of(engine).delay.total_s();
        1.0 - c / other
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::testutil::tiny_instance;

    #[test]
    fn comparison_covers_all_engines() {
        let inst = tiny_instance(1);
        let cmp = EngineComparison::evaluate("T1", &inst).unwrap();
        assert_eq!(cmp.engines.len(), 4);
        assert_eq!(cmp.case, "T1");
        for &e in &Engine::ALL {
            let _ = cmp.of(e);
        }
    }

    #[test]
    fn cross_end_gains_are_at_least_parity() {
        let inst = tiny_instance(3);
        let cmp = EngineComparison::evaluate("T", &inst).unwrap();
        assert!(cmp.lifetime_gain_over(Engine::InAggregator) >= 1.0 - 1e-9);
        assert!(cmp.lifetime_gain_over(Engine::InSensor) >= 1.0 - 1e-9);
    }
}
