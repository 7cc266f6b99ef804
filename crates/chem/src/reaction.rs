//! The lithiation example reaction and its design of experiments.
//!
//! Paper §III.B / Figure 8: "the synthesis of nitro-4'-methyldiphenylamine
//! (MNDPA) by aromatic substitution of p-toluidine and 1-fluoro-2-
//! nitrobenzene (o-FNB) ... p-toluidine was activated by a proton exchange
//! with ... Li-HMDS, giving four relevant components in all mixtures.
//! The flow reactor was operated along a DoE yielding representative
//! mixture spectra."
//!
//! This module models that reaction with simple first-order kinetics in a
//! plug-flow reactor and enumerates the DoE operating points the reactor
//! is stepped through.

use serde::{Deserialize, Serialize};

use crate::ChemError;

/// Effective first-order rate constant of the activated substitution
/// (1/s). Chosen so that residence times of 30–300 s span conversions of
/// roughly 15–95 %.
pub const RATE_CONSTANT: f64 = 0.01;

/// Operating conditions of one steady-state point of the flow reactor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReactionConditions {
    /// Feed concentration of p-toluidine in mol/L.
    pub toluidine_feed: f64,
    /// Molar feed ratio o-FNB : p-toluidine.
    pub fnb_ratio: f64,
    /// Molar feed ratio Li-HMDS : p-toluidine.
    pub hmds_ratio: f64,
    /// Residence time in the reactor in seconds.
    pub residence_time: f64,
}

impl ReactionConditions {
    /// Validates the conditions.
    ///
    /// # Errors
    ///
    /// Returns [`ChemError::InvalidReaction`] if any quantity is
    /// non-finite or out of physical range (feeds and ratios must be
    /// positive, residence time non-negative).
    pub fn validate(&self) -> Result<(), ChemError> {
        let checks = [
            ("toluidine_feed", self.toluidine_feed, true),
            ("fnb_ratio", self.fnb_ratio, true),
            ("hmds_ratio", self.hmds_ratio, true),
            ("residence_time", self.residence_time, false),
        ];
        for (name, value, strictly_positive) in checks {
            if !value.is_finite() || value < 0.0 || (strictly_positive && value == 0.0) {
                return Err(ChemError::InvalidReaction(format!("{name} = {value}")));
            }
        }
        Ok(())
    }
}

/// Steady-state concentrations of the four relevant components, in the
/// canonical label order `[p-toluidine, o-FNB, Li-HMDS, MNDPA]` (mol/L).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentConcentrations {
    /// Unreacted p-toluidine.
    pub toluidine: f64,
    /// Unreacted 1-fluoro-2-nitrobenzene.
    pub fnb: f64,
    /// Remaining lithium bis(trimethylsilyl)amide.
    pub hmds: f64,
    /// Product: 2-nitro-4'-methyldiphenylamine.
    pub mndpa: f64,
}

impl ComponentConcentrations {
    /// The concentrations as a vector in canonical label order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![self.toluidine, self.fnb, self.hmds, self.mndpa]
    }
}

/// The lithiation reaction model: maps operating conditions to
/// steady-state outlet concentrations via first-order plug-flow kinetics
/// limited by the scarcest reagent.
///
/// # Example
///
/// ```
/// use chem::reaction::{LithiationReaction, ReactionConditions};
///
/// # fn main() -> Result<(), chem::ChemError> {
/// let reaction = LithiationReaction::new();
/// let c = reaction.steady_state(&ReactionConditions {
///     toluidine_feed: 0.5,
///     fnb_ratio: 1.1,
///     hmds_ratio: 1.2,
///     residence_time: 120.0,
/// })?;
/// assert!(c.mndpa > 0.0 && c.toluidine < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LithiationReaction {
    rate_constant: f64,
}

impl LithiationReaction {
    /// The reaction with the default rate constant.
    pub fn new() -> Self {
        Self {
            rate_constant: RATE_CONSTANT,
        }
    }

    /// The first-order rate constant in 1/s.
    pub fn rate_constant(&self) -> f64 {
        self.rate_constant
    }

    /// Fractional conversion of p-toluidine at the given conditions.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`ReactionConditions::validate`].
    pub fn conversion(&self, conditions: &ReactionConditions) -> Result<f64, ChemError> {
        conditions.validate()?;
        // Kinetic conversion of the activated substrate...
        let kinetic = 1.0 - (-self.rate_constant * conditions.residence_time).exp();
        // ...capped by the limiting reagent (substitution consumes one
        // o-FNB and one Li-HMDS per p-toluidine).
        let cap = conditions.fnb_ratio.min(conditions.hmds_ratio).min(1.0);
        Ok(kinetic * cap)
    }

    /// Steady-state outlet concentrations.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`ReactionConditions::validate`].
    pub fn steady_state(
        &self,
        conditions: &ReactionConditions,
    ) -> Result<ComponentConcentrations, ChemError> {
        let x = self.conversion(conditions)?;
        let c0 = conditions.toluidine_feed;
        Ok(ComponentConcentrations {
            toluidine: c0 * (1.0 - x),
            fnb: c0 * (conditions.fnb_ratio - x),
            hmds: c0 * (conditions.hmds_ratio - x),
            mndpa: c0 * x,
        })
    }
}

impl Default for LithiationReaction {
    fn default() -> Self {
        Self::new()
    }
}

/// A full-factorial design of experiments over residence time and feed
/// ratios — the "different reaction conditions ... generated with the help
/// of laboratory equipment" the paper bases its 300-spectrum dataset on.
///
/// Returns `residence_levels × ratio_levels` operating points.
pub fn design_of_experiments(
    toluidine_feed: f64,
    residence_levels: &[f64],
    ratio_levels: &[(f64, f64)],
) -> Vec<ReactionConditions> {
    let mut points = Vec::with_capacity(residence_levels.len() * ratio_levels.len());
    for &tau in residence_levels {
        for &(fnb_ratio, hmds_ratio) in ratio_levels {
            points.push(ReactionConditions {
                toluidine_feed,
                fnb_ratio,
                hmds_ratio,
                residence_time: tau,
            });
        }
    }
    points
}

/// The default DoE used by the NMR experiments: five residence times ×
/// three reagent-ratio pairs = 15 steady-state plateaus; with 20 spectra
/// per plateau this yields the paper's 300 raw spectra.
pub fn default_doe() -> Vec<ReactionConditions> {
    design_of_experiments(
        0.5,
        &[30.0, 60.0, 120.0, 200.0, 300.0],
        &[(1.05, 1.1), (1.2, 1.3), (1.5, 1.6)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conditions(tau: f64) -> ReactionConditions {
        ReactionConditions {
            toluidine_feed: 0.5,
            fnb_ratio: 1.2,
            hmds_ratio: 1.3,
            residence_time: tau,
        }
    }

    #[test]
    fn conversion_increases_with_residence_time() {
        let r = LithiationReaction::new();
        let x1 = r.conversion(&conditions(30.0)).unwrap();
        let x2 = r.conversion(&conditions(300.0)).unwrap();
        assert!(x2 > x1);
        assert!(x1 > 0.0 && x2 < 1.0);
    }

    #[test]
    fn zero_residence_time_gives_zero_conversion() {
        let r = LithiationReaction::new();
        assert_eq!(r.conversion(&conditions(0.0)).unwrap(), 0.0);
    }

    #[test]
    fn mass_balance_holds() {
        let r = LithiationReaction::new();
        let cond = conditions(120.0);
        let c = r.steady_state(&cond).unwrap();
        // Toluidine + product = feed.
        assert!((c.toluidine + c.mndpa - cond.toluidine_feed).abs() < 1e-12);
        // o-FNB consumed equals product formed.
        let fnb_consumed = cond.toluidine_feed * cond.fnb_ratio - c.fnb;
        assert!((fnb_consumed - c.mndpa).abs() < 1e-12);
    }

    #[test]
    fn all_concentrations_non_negative() {
        let r = LithiationReaction::new();
        for point in default_doe() {
            let c = r.steady_state(&point).unwrap();
            for v in c.to_vec() {
                assert!(v >= 0.0, "{c:?}");
            }
        }
    }

    #[test]
    fn limiting_reagent_caps_conversion() {
        let r = LithiationReaction { rate_constant: 10.0 }; // ~instant kinetics
        let starved = ReactionConditions {
            toluidine_feed: 0.5,
            fnb_ratio: 0.4,
            hmds_ratio: 2.0,
            residence_time: 1000.0,
        };
        let x = r.conversion(&starved).unwrap();
        assert!((x - 0.4).abs() < 1e-6, "conversion {x}");
    }

    #[test]
    fn validation_rejects_garbage() {
        let bad = ReactionConditions {
            toluidine_feed: -1.0,
            fnb_ratio: 1.0,
            hmds_ratio: 1.0,
            residence_time: 10.0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn default_doe_has_fifteen_points() {
        assert_eq!(default_doe().len(), 15);
    }

    #[test]
    fn doe_points_are_distinct() {
        let points = default_doe();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                assert_ne!(points[i], points[j]);
            }
        }
    }
}
