//! Anchors: the numbers the paper states, judged against what this
//! reproduction measures.
//!
//! Each figure of the `paper` driver is a function returning its tables
//! plus its anchors — `(id, paper value, measured, tolerance)` rows of the
//! scoreboard. The tolerances were fixed before looking at the
//! measurements (10 % relative; 2 percentage points for accuracy gaps,
//! about one standard error of the 600-sample held-out set; yes/no claims
//! must hold) and are not widened until an anchor passes: an anchor
//! outside its tolerance is a finding, listed as such in EXPERIMENTS.md.

use crate::table::Table;

/// How an anchor's measurement is judged against the paper's value.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    /// Within this fraction of the paper's value.
    Relative(f64),
    /// Within this many percentage points (accuracy gaps).
    Points(f64),
    /// A yes/no claim (both values 1 = yes, 0 = no).
    Holds,
}

/// One number the paper states, next to what this reproduction measures.
#[derive(Debug)]
pub struct Anchor {
    /// Scoreboard id, `<figure>.<quantity>`.
    pub id: &'static str,
    /// What the paper states.
    pub paper: f64,
    /// What this run measured.
    pub measured: f64,
    /// How far apart the two may be.
    pub tolerance: Tolerance,
}

/// What one figure function hands back: its tables and its anchors.
pub type Figure = (Vec<Table>, Vec<Anchor>);

impl Anchor {
    /// A quantity the paper states: the default tolerance, 10 % of it.
    pub fn relative(id: &'static str, paper: f64, measured: f64) -> Anchor {
        Anchor { id, paper, measured, tolerance: Tolerance::Relative(0.10) }
    }

    /// An accuracy gap, in percentage points.
    pub fn points(id: &'static str, paper: f64, measured: f64) -> Anchor {
        Anchor { id, paper, measured, tolerance: Tolerance::Points(2.0) }
    }

    /// A yes/no claim that must hold.
    pub fn holds(id: &'static str, measured: bool) -> Anchor {
        Anchor {
            id,
            paper: 1.0,
            measured: f64::from(u8::from(measured)),
            tolerance: Tolerance::Holds,
        }
    }

    /// A non-finite measurement makes `off` NaN or infinite, which no
    /// tolerance admits.
    pub fn within(&self) -> bool {
        let off = (self.measured - self.paper).abs();
        match self.tolerance {
            Tolerance::Relative(share) => off <= share * self.paper.abs(),
            Tolerance::Points(points) => off <= points,
            Tolerance::Holds => off == 0.0,
        }
    }

    /// The scoreboard row: id, paper, measured, tolerance, within.
    pub fn row(&self) -> Vec<String> {
        let (show, tolerance): (fn(f64) -> String, String) = match self.tolerance {
            Tolerance::Relative(share) => {
                (|v| format!("{v:.2}"), format!("±{:.0}%", share * 100.0))
            }
            Tolerance::Points(points) => (|v| format!("{v:+.1}pp"), format!("±{points:.1}pp")),
            Tolerance::Holds => {
                (|v| if v == 1.0 { "yes" } else { "no" }.to_string(), "holds".into())
            }
        };
        let within = if self.within() { "yes" } else { "NO" };
        vec![self.id.into(), show(self.paper), show(self.measured), tolerance, within.into()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_is_judged_per_tolerance_kind() {
        // Relative: 10 % of the paper's value, either side, sign-safe.
        assert!(Anchor::relative("t", 6.7, 6.41).within());
        assert!(Anchor::relative("t", 10.0, 11.0).within());
        assert!(!Anchor::relative("t", 10.1, 11.8).within());
        assert!(!Anchor::relative("t", 2.8, 2.3).within());
        assert!(Anchor::relative("t", -10.0, -9.5).within());
        // Percentage points: absolute, however small the paper's value.
        assert!(Anchor::points("t", -0.9, 1.0).within());
        assert!(!Anchor::points("t", -5.7, -0.7).within());
        assert!(!Anchor::relative("t", -0.9, 1.0).within());
        // Yes/no claims.
        assert!(Anchor::holds("t", true).within());
        assert!(!Anchor::holds("t", false).within());
        // A measurement that is not a number is never within anything.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for tolerance in [Tolerance::Relative(0.1), Tolerance::Points(2.0), Tolerance::Holds] {
                let anchor = Anchor { id: "t", paper: 1.0, measured: bad, tolerance };
                assert!(!anchor.within(), "{anchor:?}");
            }
        }
    }

    #[test]
    fn rows_show_each_kind_in_its_unit() {
        assert_eq!(Anchor::relative("t", 6.7, 6.409).row()[1..], ["6.70", "6.41", "±10%", "yes"]);
        assert_eq!(
            Anchor::points("t", -5.7, -0.67).row()[1..],
            ["-5.7pp", "-0.7pp", "±2.0pp", "NO"]
        );
        assert_eq!(Anchor::holds("t", false).row()[1..], ["yes", "no", "holds", "NO"]);
    }
}
