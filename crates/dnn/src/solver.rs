//! The SGD solver with Caffe's hyper-parameters and learning-rate policies.

use shmcaffe_tensor::Tensor;

use crate::{DnnError, Net, Phase};

/// Learning-rate schedule, mirroring Caffe's `lr_policy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrPolicy {
    /// Constant learning rate.
    Fixed,
    /// `base_lr * gamma^(floor(iter / step_size))` — the paper's setting
    /// (γ = 0.1, step size = 4 epochs).
    Step {
        /// Multiplicative decay per step.
        gamma: f32,
        /// Iterations between decays.
        step_size: usize,
    },
}

impl LrPolicy {
    /// The learning rate at `iter` given `base_lr`.
    pub fn lr_at(&self, base_lr: f32, iter: usize) -> f32 {
        match *self {
            LrPolicy::Fixed => base_lr,
            LrPolicy::Step { gamma, step_size } => {
                base_lr * gamma.powi((iter / step_size.max(1)) as i32)
            }
        }
    }
}

/// Solver hyper-parameters (the paper: base_lr 0.1, γ 0.1, momentum 0.9,
/// step size 4 epochs, 15-epoch max).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Base learning rate η.
    pub base_lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Learning-rate schedule.
    pub policy: LrPolicy,
    /// Optional gradient clipping bound (absolute value per element).
    pub clip_gradients: Option<f32>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            base_lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0005,
            policy: LrPolicy::Fixed,
            clip_gradients: None,
        }
    }
}

/// The SGD-with-momentum solver wrapped around a [`Net`].
///
/// Splitting [`Solver::compute_gradients`] from [`Solver::apply_update`]
/// lets distributed platforms aggregate/replace gradients between the halves
/// (SSGD allreduce, parameter-server exchange) — exactly how the baselines
/// and ShmCaffe reuse Caffe's solver (paper §III-C: "ShmCaffe uses the SGD
/// optimizer of Caffe to update the local weight").
pub struct Solver {
    net: Net,
    config: SolverConfig,
    momentum_buf: Vec<Tensor>,
    iter: usize,
}

impl Solver {
    /// Wraps a network with solver state.
    pub fn new(net: Net, config: SolverConfig) -> Self {
        Solver { net, config, momentum_buf: Vec::new(), iter: 0 }
    }

    /// The wrapped network.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Mutable access to the wrapped network.
    pub fn net_mut(&mut self) -> &mut Net {
        &mut self.net
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Completed update count.
    pub fn iter(&self) -> usize {
        self.iter
    }

    /// Current learning rate.
    pub fn current_lr(&self) -> f32 {
        self.config.policy.lr_at(self.config.base_lr, self.iter)
    }

    /// Zeroes gradients, runs forward + backward on one minibatch, and
    /// returns the loss. Does *not* update weights.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn compute_gradients(&mut self, input: &Tensor, labels: &[usize]) -> Result<f32, DnnError> {
        self.net.zero_grads();
        let (loss, _) = self.net.forward_loss(input, labels, Phase::Train)?;
        self.net.backward_from_loss(labels)?;
        Ok(loss)
    }

    /// Applies the currently stored gradients with momentum, weight decay
    /// and the scheduled learning rate (Caffe's update rule:
    /// `v = momentum * v + lr * (grad + decay * w); w -= v`), then advances
    /// the iteration counter.
    pub fn apply_update(&mut self) {
        let lr = self.current_lr();
        let momentum = self.config.momentum;
        let decay = self.config.weight_decay;
        let clip = self.config.clip_gradients;

        // Lazily size the momentum buffers on first use.
        if self.momentum_buf.is_empty() {
            let mut shapes = Vec::new();
            self.net.for_each_param(|p, _| shapes.push(p.dims().to_vec()));
            self.momentum_buf = shapes.iter().map(|s| Tensor::zeros(s)).collect();
        }

        let mut idx = 0;
        let bufs = &mut self.momentum_buf;
        self.net.for_each_param(|p, g| {
            let v = &mut bufs[idx];
            idx += 1;
            for ((vv, pv), gv) in
                v.data_mut().iter_mut().zip(p.data_mut().iter_mut()).zip(g.data().iter())
            {
                let mut grad = gv + decay * *pv;
                if let Some(bound) = clip {
                    grad = grad.clamp(-bound, bound);
                }
                *vv = momentum * *vv + lr * grad;
                *pv -= *vv;
            }
        });
        self.iter += 1;
    }

    /// One complete SGD step: gradients then update. Returns the loss.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn step(&mut self, input: &Tensor, labels: &[usize]) -> Result<f32, DnnError> {
        let loss = self.compute_gradients(input, labels)?;
        self.apply_update();
        Ok(loss)
    }

    /// Consumes the solver, returning the trained network.
    pub fn into_net(self) -> Net {
        self.net
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("net", &self.net)
            .field("iter", &self.iter)
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{InnerProduct, Relu};
    use shmcaffe_tensor::init::Filler;

    fn make_solver(policy: LrPolicy) -> Solver {
        let mut net = Net::new("t");
        net.add(InnerProduct::new("fc1", 2, 8, Filler::Xavier, 1));
        net.add(Relu::new("r"));
        net.add(InnerProduct::new("fc2", 8, 2, Filler::Xavier, 1));
        Solver::new(
            net,
            SolverConfig {
                base_lr: 0.2,
                momentum: 0.9,
                weight_decay: 0.0,
                policy,
                clip_gradients: None,
            },
        )
    }

    #[test]
    fn lr_policies() {
        assert_eq!(LrPolicy::Fixed.lr_at(0.1, 100), 0.1);
        let step = LrPolicy::Step { gamma: 0.1, step_size: 10 };
        assert!((step.lr_at(1.0, 9) - 1.0).abs() < 1e-7);
        assert!((step.lr_at(1.0, 10) - 0.1).abs() < 1e-7);
        assert!((step.lr_at(1.0, 25) - 0.01).abs() < 1e-7);
    }

    #[test]
    fn solver_reduces_loss_on_separable_task() {
        let mut solver = make_solver(LrPolicy::Fixed);
        let x =
            Tensor::from_vec(vec![1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0, 1.0], &[4, 2]).unwrap();
        let labels = vec![0usize, 0, 1, 1];
        let first = solver.step(&x, &labels).unwrap();
        for _ in 0..100 {
            solver.step(&x, &labels).unwrap();
        }
        let last = solver.step(&x, &labels).unwrap();
        assert!(last < first * 0.2, "{first} -> {last}");
        assert_eq!(solver.iter(), 102);
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        // With a constant gradient g and momentum m, successive updates grow
        // toward lr*g/(1-m). Verify the update magnitude grows.
        let mut solver = make_solver(LrPolicy::Fixed);
        let x = Tensor::from_vec(vec![1.0, 0.5], &[1, 2]).unwrap();
        let labels = vec![0usize];
        let n = solver.net_mut().param_len();
        let mut w0 = vec![0.0; n];
        solver.net_mut().copy_weights_to(&mut w0).unwrap();
        solver.step(&x, &labels).unwrap();
        let mut w1 = vec![0.0; n];
        solver.net_mut().copy_weights_to(&mut w1).unwrap();
        solver.step(&x, &labels).unwrap();
        let mut w2 = vec![0.0; n];
        solver.net_mut().copy_weights_to(&mut w2).unwrap();
        let d1: f32 = w0.iter().zip(w1.iter()).map(|(a, b)| (a - b).abs()).sum();
        let d2: f32 = w1.iter().zip(w2.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(d2 > d1 * 1.2, "momentum should accelerate: {d1} vs {d2}");
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradients() {
        let mut net = Net::new("d");
        net.add(InnerProduct::new("fc", 1, 1, Filler::Constant(1.0), 0));
        let mut solver = Solver::new(
            net,
            SolverConfig {
                base_lr: 0.1,
                momentum: 0.0,
                weight_decay: 0.5,
                policy: LrPolicy::Fixed,
                clip_gradients: None,
            },
        );
        // Zero gradients: only decay acts.
        solver.net_mut().zero_grads();
        solver.apply_update();
        let mut w = vec![0.0; 2];
        solver.net_mut().copy_weights_to(&mut w).unwrap();
        // w = 1 - 0.1*0.5*1 = 0.95 (bias stays 0).
        assert!((w[0] - 0.95).abs() < 1e-6);
        assert_eq!(w[1], 0.0);
    }

    #[test]
    fn gradient_clipping_bounds_update() {
        let mut net = Net::new("c");
        net.add(InnerProduct::new("fc", 1, 1, Filler::Constant(0.0), 0));
        let mut solver = Solver::new(
            net,
            SolverConfig {
                base_lr: 1.0,
                momentum: 0.0,
                weight_decay: 0.0,
                policy: LrPolicy::Fixed,
                clip_gradients: Some(0.1),
            },
        );
        solver.net_mut().load_grads_from(&[100.0, -100.0]).unwrap();
        solver.apply_update();
        let mut w = vec![0.0; 2];
        solver.net_mut().copy_weights_to(&mut w).unwrap();
        assert!((w[0] + 0.1).abs() < 1e-6);
        assert!((w[1] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn step_policy_decays_during_training() {
        let mut solver = make_solver(LrPolicy::Step { gamma: 0.1, step_size: 5 });
        assert!((solver.current_lr() - 0.2).abs() < 1e-7);
        let x = Tensor::zeros(&[1, 2]);
        for _ in 0..5 {
            solver.step(&x, &[0]).unwrap();
        }
        assert!((solver.current_lr() - 0.02).abs() < 1e-7);
    }
}
