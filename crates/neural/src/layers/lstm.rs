//! Long short-term memory layer.
//!
//! The paper's second NMR model analyses the time series of spectra with
//! an LSTM of 32 units over five timesteps (§III.B.2/3). With a
//! 1700-point spectrum per timestep, the layer holds
//! `4·32·(1700 + 32 + 1) = 221 824` parameters; a Dense(4) head adds 132
//! for the paper's exact total of 221 956.

use rand_chacha::ChaCha8Rng;

use crate::init::Init;
use crate::layers::{import_into, Layer, LayerSummary};
use crate::{Activation, NeuralError};

/// Rows per input-projection tile: one 256-bit vector of `f32`.
const LANES: usize = 8;
/// Gate rows per input-projection tile; `4·units` is always a multiple.
const ROWS: usize = 4;
/// Features per step of the projection tile's loop.
const UNROLL: usize = 4;
/// Windows per group in batched inference. It bounds the projections
/// held at once, and as a multiple of `LANES` it lets the one new row of
/// each sliding window fill whole tiles.
const GROUP: usize = 32;

/// An LSTM over a fixed-length sequence, returning the last hidden state.
///
/// Input layout: `timesteps × features`, flattened time-major
/// (`input[t * features + d]`). Output: the final hidden state (`units`
/// values). Gate order in the stacked weight matrices is `[i, f, g, o]`.
#[derive(Debug, Clone)]
pub struct Lstm {
    features: usize,
    units: usize,
    timesteps: usize,
    /// Input weights `W`, shape `4*units × features`.
    w: Vec<f32>,
    /// Recurrent weights `U`, shape `4*units × units`.
    u: Vec<f32>,
    /// Bias, `4*units` (forget-gate slice initialized to 1.0).
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_u: Vec<f32>,
    grad_b: Vec<f32>,
    // Forward caches, one entry per timestep.
    cached_input: Vec<f32>,
    cached_gates: Vec<f32>,  // post-nonlinearity gates, t * 4*units
    cached_cell: Vec<f32>,   // c_t, t * units
    cached_hidden: Vec<f32>, // h_t, t * units
}

/// The timestep rows of a run of windows, numbered so that each distinct
/// row goes through `W` once.
#[derive(Default)]
struct Rows<'a> {
    /// Distinct rows, in first-seen order.
    distinct: Vec<&'a [f32]>,
    /// Per window and timestep, the index of its row in `distinct`.
    ids: Vec<usize>,
    /// `W·x` of the leading distinct rows, `4·units` values per row.
    wx: Vec<f32>,
}

impl<'a> Rows<'a> {
    /// Appends one window's rows. A row takes the index of an equal row
    /// among the `timesteps` rows before it, if there is one: that is
    /// where sliding windows keep their predecessor's rows and
    /// plateau-repeat windows their repeats. Rows are equal only if
    /// every value is equal by `to_bits`. Windows that are views of one
    /// row buffer share their rows' memory, so the same slice (pointer
    /// and length) matches first, without comparing values; the recent
    /// ids never hold two equal rows, so either search finds the same id.
    fn push(&mut self, window: &'a [f32], features: usize, timesteps: usize) {
        for x in window.chunks_exact(features) {
            let recent = &self.ids[self.ids.len().saturating_sub(timesteps)..];
            let find = |eq: fn(&[f32], &[f32]) -> bool| {
                recent.iter().copied().find(|&id| eq(self.distinct[id], x))
            };
            let id = match find(|a, b| std::ptr::eq(a, b)).or_else(|| find(same_bits)) {
                Some(id) => id,
                None => {
                    self.distinct.push(x);
                    self.distinct.len() - 1
                }
            };
            self.ids.push(id);
        }
    }

    /// Keeps the last `timesteps` indices and the projected rows they
    /// name, so that the next window can still match its predecessor.
    fn keep_last(&mut self, timesteps: usize, width: usize) {
        let tail = self.ids.split_off(self.ids.len().saturating_sub(timesteps));
        let mut kept: Vec<usize> = Vec::with_capacity(tail.len());
        let ids = tail
            .into_iter()
            .map(|id| match kept.iter().position(|&k| k == id) {
                Some(new) => new,
                None => {
                    kept.push(id);
                    kept.len() - 1
                }
            })
            .collect();
        let mut wx = Vec::with_capacity(kept.len() * width);
        for &k in &kept {
            wx.extend_from_slice(&self.wx[k * width..(k + 1) * width]);
        }
        let distinct = kept.iter().map(|&k| self.distinct[k]).collect();
        *self = Self { distinct, ids, wx };
    }
}

/// Whether two rows hold the same bits, value by value (so `0.0` and
/// `-0.0` differ). Blocks of 16 values are compared without an early
/// exit inside, so each block is a vector compare.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    fn block_eq(x: &[f32], y: &[f32]) -> bool {
        x.iter()
            .zip(y)
            .fold(true, |eq, (p, q)| eq & (p.to_bits() == q.to_bits()))
    }
    let ((xs, x_tail), (ys, y_tail)) = (a.as_chunks::<16>(), b.as_chunks::<16>());
    a.len() == b.len()
        && block_eq(x_tail, y_tail)
        && xs.iter().zip(ys).all(|(x, y)| block_eq(x, y))
}

/// One `ROWS × LANES` tile of `W·x`: the `ROWS` gate rows in `w` (each
/// `x.len()` long) against `LANES` input rows held transposed in `x`.
///
/// The tile runs `ROWS × LANES` independent accumulators instead of one
/// latency-bound chain. Each still starts at `0.0` and adds `w·x` in
/// ascending feature order with a separate multiply and add: the same
/// IEEE operations as a per-row dot product. The loop takes `UNROLL`
/// features per step in the source, so its body holds `ROWS · UNROLL`
/// packed multiplies whatever the compiler's own unrolling decides.
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
fn project_tile(w: &[f32], x: &[[f32; LANES]]) -> [[f32; LANES]; ROWS] {
    let mut acc = [[0.0f32; LANES]; ROWS];
    let d = x.len();
    let Some((w0, rest)) = w.split_at_checked(d) else {
        return acc;
    };
    let Some((w1, rest)) = rest.split_at_checked(d) else {
        return acc;
    };
    let Some((w2, w3)) = rest.split_at_checked(d) else {
        return acc;
    };
    let (xq, q0, q1, q2, q3) = (
        x.chunks_exact(UNROLL),
        w0.chunks_exact(UNROLL),
        w1.chunks_exact(UNROLL),
        w2.chunks_exact(UNROLL),
        w3.chunks_exact(UNROLL),
    );
    let tail = xq
        .remainder()
        .iter()
        .zip(q0.remainder())
        .zip(q1.remainder())
        .zip(q2.remainder())
        .zip(q3.remainder());
    for ((((xs, a), b), c), e) in xq.zip(q0).zip(q1).zip(q2).zip(q3) {
        for u in 0..UNROLL {
            accumulate(&mut acc, [a[u], b[u], c[u], e[u]], &xs[u]);
        }
    }
    for ((((x, &a), &b), &c), &e) in tail {
        accumulate(&mut acc, [a, b, c, e], x);
    }
    acc
}

/// One step of a `ROWS × LANES` tile, `acc[r][l] += w[r] · x[l]` with a
/// separate multiply and add: the projection tile and the recurrence
/// both run on it.
#[inline(always)]
fn accumulate(acc: &mut [[f32; LANES]; ROWS], w: [f32; ROWS], x: &[f32; LANES]) {
    for (acc_r, &a) in acc.iter_mut().zip(&w) {
        for l in 0..LANES {
            acc_r[l] += a * x[l];
        }
    }
}

impl Lstm {
    /// Creates an LSTM layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if any dimension is zero.
    pub fn new(
        timesteps: usize,
        features: usize,
        units: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, NeuralError> {
        if timesteps == 0 || features == 0 || units == 0 {
            return Err(NeuralError::InvalidSpec(format!(
                "lstm needs non-zero dims, got T={timesteps} D={features} H={units}"
            )));
        }
        let mut w = vec![0.0; 4 * units * features];
        let mut u = vec![0.0; 4 * units * units];
        Init::GlorotUniform.fill(&mut w, features, units, rng);
        Init::GlorotUniform.fill(&mut u, units, units, rng);
        let mut b = vec![0.0; 4 * units];
        // Standard trick: forget-gate bias = 1 so early training remembers.
        for v in b[units..2 * units].iter_mut() {
            *v = 1.0;
        }
        Ok(Self {
            features,
            units,
            timesteps,
            grad_w: vec![0.0; w.len()],
            grad_u: vec![0.0; u.len()],
            grad_b: vec![0.0; b.len()],
            w,
            u,
            b,
            cached_input: Vec::new(),
            cached_gates: Vec::new(),
            cached_cell: Vec::new(),
            cached_hidden: Vec::new(),
        })
    }

    /// Number of hidden units.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Number of timesteps the layer expects.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// Appends `W·x` for every distinct row not projected yet, in one pass
    /// over `W` per `LANES` rows. The rows of a tile are transposed to
    /// `features × LANES`, with zero-padded tail lanes.
    fn project(&self, rows: &mut Rows<'_>) {
        let d = self.features;
        let width = 4 * self.units;
        let done = rows.wx.len() / width;
        let Rows { distinct, wx, .. } = rows;
        wx.resize(distinct.len() * width, 0.0);
        let mut lanes = vec![[0.0f32; LANES]; d];
        let fresh = distinct[done..].chunks(LANES);
        let tiles_out = wx[done * width..].chunks_mut(LANES * width);
        for (tile, out) in fresh.zip(tiles_out) {
            lanes.fill([0.0; LANES]);
            for (l, x) in tile.iter().enumerate() {
                for (lane, &v) in lanes.iter_mut().zip(*x) {
                    lane[l] = v;
                }
            }
            // `4·units` rows always split into whole tiles.
            for (r, w_tile) in self.w.chunks_exact(ROWS * d).enumerate() {
                let acc = project_tile(w_tile, &lanes);
                for (l, wx_row) in out.chunks_exact_mut(width).enumerate() {
                    for (slot, acc_r) in wx_row[r * ROWS..(r + 1) * ROWS].iter_mut().zip(&acc) {
                        *slot = acc_r[l];
                    }
                }
            }
        }
    }

    /// The recurrence of up to `LANES` windows at once, one per lane:
    /// window `l`'s timestep `t` has the projection row `windows[l][t]`
    /// of `wx`. Returns every window's last hidden state. With `trace`,
    /// the first window's gates, cells and hidden states are written to
    /// it (`t`-major), as `backward` needs them.
    ///
    /// Each lane computes exactly the per-window recurrence: the gate
    /// pre-activation `z = b + (W x + U h_prev)` continues the `W x`
    /// accumulator with `U h_prev` in ascending order, and the gate math
    /// is elementwise.
    fn recur(&self, wx: &[f32], windows: &[&[usize]], mut trace: Option<Trace<'_>>) -> Vec<Vec<f32>> {
        let h = self.units;
        let width = 4 * h;
        let mut h_state = vec![[0.0f32; LANES]; h];
        let mut c_state = vec![[0.0f32; LANES]; h];
        let mut z = vec![[0.0f32; LANES]; width];
        for t in 0..self.timesteps {
            // `ROWS` gate rows at a time, every lane its own accumulator.
            for (tile, ((z_tile, u_tile), b_tile)) in z
                .chunks_exact_mut(ROWS)
                .zip(self.u.chunks_exact(ROWS * h))
                .zip(self.b.chunks_exact(ROWS))
                .enumerate()
            {
                let mut acc = [[0.0f32; LANES]; ROWS];
                for (l, ids) in windows.iter().enumerate() {
                    let first = ids[t] * width + tile * ROWS;
                    for (acc_r, &v) in acc.iter_mut().zip(&wx[first..first + ROWS]) {
                        acc_r[l] = v;
                    }
                }
                let (u0, rest) = u_tile.split_at(h);
                let (u1, rest) = rest.split_at(h);
                let (u2, u3) = rest.split_at(h);
                for ((((h_k, &a), &b), &c), &e) in h_state.iter().zip(u0).zip(u1).zip(u2).zip(u3) {
                    accumulate(&mut acc, [a, b, c, e], h_k);
                }
                for ((z_r, acc_r), &b) in z_tile.iter_mut().zip(&acc).zip(b_tile) {
                    for l in 0..LANES {
                        z_r[l] = b + acc_r[l];
                    }
                }
            }
            // Gates: [i, f, g, o].
            for j in 0..h {
                for l in 0..windows.len() {
                    let i_g = Self::sigmoid(z[j][l]);
                    let f_g = Self::sigmoid(z[h + j][l]);
                    let g_g = z[2 * h + j][l].tanh();
                    let o_g = Self::sigmoid(z[3 * h + j][l]);
                    let c = f_g * c_state[j][l] + i_g * g_g;
                    let h_t = o_g * c.tanh();
                    c_state[j][l] = c;
                    h_state[j][l] = h_t;
                    if let (0, Some(trace)) = (l, trace.as_mut()) {
                        let gates = &mut trace.gates[t * width..(t + 1) * width];
                        gates[j] = i_g;
                        gates[h + j] = f_g;
                        gates[2 * h + j] = g_g;
                        gates[3 * h + j] = o_g;
                        trace.cell[t * h + j] = c;
                        trace.hidden[t * h + j] = h_t;
                    }
                }
            }
        }
        (0..windows.len())
            .map(|l| h_state.iter().map(|h_k| h_k[l]).collect())
            .collect()
    }
}

/// Where [`Lstm::recur`] records one window's states, `t`-major.
struct Trace<'a> {
    gates: &'a mut [f32],
    cell: &'a mut [f32],
    hidden: &'a mut [f32],
}

impl Layer for Lstm {
    fn kind(&self) -> &'static str {
        "LSTM"
    }

    fn input_len(&self) -> usize {
        self.timesteps * self.features
    }

    fn output_len(&self) -> usize {
        self.units
    }

    /// The one-window case of [`Layer::forward_batch`], keeping the
    /// window's states for `backward`.
    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "lstm input length");
        let h = self.units;
        let t_max = self.timesteps;
        let mut rows = Rows::default();
        rows.push(input, self.features, t_max);
        self.project(&mut rows);
        let mut gates = std::mem::take(&mut self.cached_gates);
        let mut cell = std::mem::take(&mut self.cached_cell);
        let mut hidden = std::mem::take(&mut self.cached_hidden);
        gates.resize(t_max * 4 * h, 0.0);
        cell.resize(t_max * h, 0.0);
        hidden.resize(t_max * h, 0.0);
        let trace = Trace {
            gates: &mut gates,
            cell: &mut cell,
            hidden: &mut hidden,
        };
        let out = self.recur(&rows.wx, &[&rows.ids], Some(trace)).pop();
        self.cached_gates = gates;
        self.cached_cell = cell;
        self.cached_hidden = hidden;
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        out.unwrap_or_default()
    }

    /// Projects each distinct timestep row of the batch once (see
    /// [`Rows::push`]), `GROUP` windows at a time, then runs the windows'
    /// recurrences `LANES` at a time on the shared projections.
    fn forward_batch(&mut self, inputs: &[&[f32]]) -> Vec<Vec<f32>> {
        for x in inputs {
            assert_eq!(x.len(), self.input_len(), "lstm input length");
        }
        let t_max = self.timesteps;
        let mut out = Vec::with_capacity(inputs.len());
        let mut rows = Rows::default();
        for group in inputs.chunks(GROUP) {
            rows.keep_last(t_max, 4 * self.units);
            let carried = rows.ids.len();
            for x in group {
                rows.push(x, self.features, t_max);
            }
            self.project(&mut rows);
            for lanes in rows.ids[carried..].chunks(t_max * LANES) {
                let windows: Vec<&[usize]> = lanes.chunks_exact(t_max).collect();
                out.extend(self.recur(&rows.wx, &windows, None));
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &[f32], input_grad: bool) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.units, "lstm grad length");
        assert!(
            !self.cached_input.is_empty(),
            "backward called before forward"
        );
        let h = self.units;
        let d = self.features;
        let rows = 4 * h;
        let t_max = self.timesteps;

        // Pass 1, the recurrence: every dz_t, grad_b, grad_u and dh_{t-1}.
        // It touches U only, so W is left for one sweep below.
        let mut dz = vec![0.0f32; t_max * rows];
        let mut dh = grad_output.to_vec();
        let mut dc = vec![0.0f32; h];
        for t in (0..t_max).rev() {
            let gates = &self.cached_gates[t * rows..(t + 1) * rows];
            let c_t = &self.cached_cell[t * h..(t + 1) * h];
            let (h_prev, c_prev): (&[f32], &[f32]) = if t == 0 {
                (&[], &[])
            } else {
                (
                    &self.cached_hidden[(t - 1) * h..t * h],
                    &self.cached_cell[(t - 1) * h..t * h],
                )
            };
            let dz_t = &mut dz[t * rows..(t + 1) * rows];
            for j in 0..h {
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tanh_c = c_t[j].tanh();
                let do_g = dh[j] * tanh_c;
                let dct = dc[j] + dh[j] * o_g * (1.0 - tanh_c * tanh_c);
                let di = dct * g_g;
                let dg = dct * i_g;
                let cp = if t == 0 { 0.0 } else { c_prev[j] };
                let df = dct * cp;
                dz_t[j] = di * i_g * (1.0 - i_g);
                dz_t[h + j] = df * f_g * (1.0 - f_g);
                dz_t[2 * h + j] = dg * (1.0 - g_g * g_g);
                dz_t[3 * h + j] = do_g * o_g * (1.0 - o_g);
                dc[j] = dct * f_g;
            }
            let mut dh_prev = vec![0.0f32; h];
            for (((&g, gb), gu), ur) in dz_t
                .iter()
                .zip(&mut self.grad_b)
                .zip(self.grad_u.chunks_exact_mut(h))
                .zip(self.u.chunks_exact(h))
            {
                if g == 0.0 {
                    continue;
                }
                *gb += g;
                // No h_{-1}: at t = 0 this zip is empty.
                for (((gu_k, dh_k), &hp), &u) in gu.iter_mut().zip(&mut dh_prev).zip(h_prev).zip(ur)
                {
                    *gu_k += g * hp;
                    *dh_k += g * u;
                }
            }
            dh = dh_prev;
        }

        // Pass 2: one sweep over the rows of W. Each row walks t in
        // descending order, which keeps every sum in the order of the
        // per-timestep loop: grad_w over t descending, grad_in over rows.
        let mut grad_in = if input_grad {
            vec![0.0f32; self.input_len()]
        } else {
            Vec::new()
        };
        for (row, (wr, gw)) in self
            .w
            .chunks_exact(d)
            .zip(self.grad_w.chunks_exact_mut(d))
            .enumerate()
        {
            for t in (0..t_max).rev() {
                let g = dz[t * rows + row];
                if g == 0.0 {
                    continue;
                }
                let x_t = &self.cached_input[t * d..(t + 1) * d];
                for (gw_k, &x) in gw.iter_mut().zip(x_t) {
                    *gw_k += g * x;
                }
                if input_grad {
                    let gx = &mut grad_in[t * d..(t + 1) * d];
                    for (gx_k, &w) in gx.iter_mut().zip(wr) {
                        *gx_k += g * w;
                    }
                }
            }
        }
        grad_in
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.u.len() + self.b.len()
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(&mut self.w, &mut self.grad_w);
        visitor(&mut self.u, &mut self.grad_u);
        visitor(&mut self.b, &mut self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_u.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "LSTM".into(),
            output_shape: format!("{}", self.units),
            config: format!(
                "units={} timesteps={} features={}",
                self.units, self.timesteps, self.features
            ),
            activation: Activation::Tanh.short_name().into(),
            parameters: self.param_count(),
        }
    }

    fn export_params(&self) -> Vec<Vec<f32>> {
        vec![self.w.clone(), self.u.clone(), self.b.clone()]
    }

    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        let Self { w, u, b, .. } = self;
        import_into("LSTM", &mut [w, u, b], params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(23)
    }

    #[test]
    fn paper_parameter_count_is_exact() {
        let layer = Lstm::new(5, 1700, 32, &mut rng()).unwrap();
        assert_eq!(layer.param_count(), 221_824);
        // Plus Dense(32 -> 4): 132 => 221 956 (paper §III.B.3).
        assert_eq!(layer.param_count() + 32 * 4 + 4, 221_956);
    }

    #[test]
    fn output_is_units_long() {
        let mut layer = Lstm::new(3, 4, 5, &mut rng()).unwrap();
        let out = layer.forward(&[0.1; 12], false);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hidden_state_is_bounded() {
        // h = o * tanh(c): |h| <= 1.
        let mut layer = Lstm::new(10, 3, 4, &mut rng()).unwrap();
        let input: Vec<f32> = (0..30).map(|i| (i as f32 * 1.3).sin() * 10.0).collect();
        let out = layer.forward(&input, false);
        assert!(out.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn constant_input_converges_towards_fixed_point() {
        let mut short = Lstm::new(2, 2, 3, &mut rng()).unwrap();
        let mut long = Lstm::new(40, 2, 3, &mut rng()).unwrap();
        long.import_params(&short.export_params()).unwrap();
        let x2: Vec<f32> = [0.5, -0.5].repeat(2);
        let x40: Vec<f32> = [0.5, -0.5].repeat(40);
        let out_short = short.forward(&x2, false);
        let out_long_a = long.forward(&x40, false);
        // Running even longer barely changes the state.
        let mut longer = Lstm::new(41, 2, 3, &mut rng()).unwrap();
        longer.import_params(&short.export_params()).unwrap();
        let x41: Vec<f32> = [0.5, -0.5].repeat(41);
        let out_long_b = longer.forward(&x41, false);
        let drift: f32 = out_long_a
            .iter()
            .zip(&out_long_b)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let initial_motion: f32 = out_short
            .iter()
            .zip(&out_long_a)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(drift < 0.05 * (initial_motion + 0.1), "drift {drift}");
    }

    #[test]
    fn backward_matches_numeric_input_gradients() {
        let mut layer = Lstm::new(4, 3, 3, &mut rng()).unwrap();
        let input: Vec<f32> = (0..12).map(|i| ((i as f32) * 0.7).sin()).collect();
        let upstream = [0.5f32, -1.0, 1.5];
        layer.forward(&input, true);
        layer.zero_grads();
        let grad_in = layer.backward(&upstream, true);

        let loss = |l: &mut Lstm, x: &[f32]| -> f32 {
            l.forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };
        let eps = 1e-3;
        for i in 0..input.len() {
            let mut hi = input.clone();
            hi[i] += eps;
            let mut lo = input.clone();
            lo[i] -= eps;
            let num = (loss(&mut layer, &hi) - loss(&mut layer, &lo)) / (2.0 * eps);
            assert!(
                (grad_in[i] - num).abs() < 1e-2,
                "input grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn backward_matches_numeric_weight_gradients() {
        let mut layer = Lstm::new(3, 2, 2, &mut rng()).unwrap();
        let input: Vec<f32> = (0..6).map(|i| 0.3 * i as f32 - 0.8).collect();
        let upstream = [1.0f32, -0.5];
        layer.forward(&input, true);
        layer.zero_grads();
        layer.backward(&upstream, true);
        let mut analytic = Vec::new();
        layer.visit_params(&mut |_p, g| analytic.push(g.to_vec()));

        let loss = |l: &mut Lstm, x: &[f32]| -> f32 {
            l.forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };
        let eps = 1e-3;
        let mut exported = layer.export_params();
        // Check a spread of W, U and b entries.
        for (tensor, idx) in [(0usize, 0usize), (0, 7), (1, 3), (2, 1), (2, 5)] {
            let orig = exported[tensor][idx];
            exported[tensor][idx] = orig + eps;
            layer.import_params(&exported).unwrap();
            let f_hi = loss(&mut layer, &input);
            exported[tensor][idx] = orig - eps;
            layer.import_params(&exported).unwrap();
            let f_lo = loss(&mut layer, &input);
            exported[tensor][idx] = orig;
            layer.import_params(&exported).unwrap();
            let num = (f_hi - f_lo) / (2.0 * eps);
            assert!(
                (analytic[tensor][idx] - num).abs() < 1e-2,
                "tensor {tensor} idx {idx}: analytic {} numeric {num}",
                analytic[tensor][idx]
            );
        }
    }

    #[test]
    fn order_of_timesteps_matters() {
        let mut layer = Lstm::new(3, 2, 4, &mut rng()).unwrap();
        let fwd = layer.forward(&[1.0, 0.0, 0.0, 1.0, -1.0, 0.5], false);
        let rev = layer.forward(&[-1.0, 0.5, 0.0, 1.0, 1.0, 0.0], false);
        let diff: f32 = fwd.iter().zip(&rev).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "LSTM ignored sequence order");
    }

    /// The per-timestep, per-row loops the layer is checked against:
    /// `W` is read once per timestep and every dot product is one chain.
    fn textbook_forward(l: &mut Lstm, input: &[f32]) -> Vec<f32> {
        let h = l.units;
        let d = l.features;
        let t_max = l.timesteps;
        l.cached_input = input.to_vec();
        l.cached_gates = vec![0.0; t_max * 4 * h];
        l.cached_cell = vec![0.0; t_max * h];
        l.cached_hidden = vec![0.0; t_max * h];

        let mut h_prev = vec![0.0f32; h];
        let mut c_prev = vec![0.0f32; h];
        for t in 0..t_max {
            let x_t = &input[t * d..(t + 1) * d];
            // z = W x + U h_prev + b, z has 4h entries.
            let mut z = l.b.clone();
            for (row, slot) in z.iter_mut().enumerate() {
                let wr = &l.w[row * d..(row + 1) * d];
                let mut acc = 0.0f32;
                for (wi, xi) in wr.iter().zip(x_t) {
                    acc += wi * xi;
                }
                let ur = &l.u[row * h..(row + 1) * h];
                for (ui, hi) in ur.iter().zip(&h_prev) {
                    acc += ui * hi;
                }
                *slot += acc;
            }
            // Gates: [i, f, g, o].
            let gates = &mut l.cached_gates[t * 4 * h..(t + 1) * 4 * h];
            for j in 0..h {
                let i_g = Lstm::sigmoid(z[j]);
                let f_g = Lstm::sigmoid(z[h + j]);
                let g_g = z[2 * h + j].tanh();
                let o_g = Lstm::sigmoid(z[3 * h + j]);
                gates[j] = i_g;
                gates[h + j] = f_g;
                gates[2 * h + j] = g_g;
                gates[3 * h + j] = o_g;
                let c = f_g * c_prev[j] + i_g * g_g;
                l.cached_cell[t * h + j] = c;
                l.cached_hidden[t * h + j] = o_g * c.tanh();
            }
            h_prev.copy_from_slice(&l.cached_hidden[t * h..(t + 1) * h]);
            c_prev.copy_from_slice(&l.cached_cell[t * h..(t + 1) * h]);
        }
        h_prev
    }

    fn textbook_backward(l: &mut Lstm, grad_output: &[f32]) -> Vec<f32> {
        let h = l.units;
        let d = l.features;
        let t_max = l.timesteps;
        let mut grad_in = vec![0.0f32; l.input_len()];
        let mut dh = grad_output.to_vec();
        let mut dc = vec![0.0f32; h];
        let mut dz = vec![0.0f32; 4 * h];

        for t in (0..t_max).rev() {
            let gates = &l.cached_gates[t * 4 * h..(t + 1) * 4 * h];
            let c_t = &l.cached_cell[t * h..(t + 1) * h];
            let (h_prev, c_prev): (&[f32], &[f32]) = if t == 0 {
                (&[], &[])
            } else {
                (
                    &l.cached_hidden[(t - 1) * h..t * h],
                    &l.cached_cell[(t - 1) * h..t * h],
                )
            };
            for j in 0..h {
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tanh_c = c_t[j].tanh();
                let do_g = dh[j] * tanh_c;
                let dct = dc[j] + dh[j] * o_g * (1.0 - tanh_c * tanh_c);
                let di = dct * g_g;
                let dg = dct * i_g;
                let cp = if t == 0 { 0.0 } else { c_prev[j] };
                let df = dct * cp;
                dz[j] = di * i_g * (1.0 - i_g);
                dz[h + j] = df * f_g * (1.0 - f_g);
                dz[2 * h + j] = dg * (1.0 - g_g * g_g);
                dz[3 * h + j] = do_g * o_g * (1.0 - o_g);
                dc[j] = dct * f_g;
            }
            // Accumulate parameter gradients and propagate to x_t, h_{t-1}.
            let x_t = &l.cached_input[t * d..(t + 1) * d];
            let mut dh_prev = vec![0.0f32; h];
            for (row, &g) in dz.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                l.grad_b[row] += g;
                let gw = &mut l.grad_w[row * d..(row + 1) * d];
                let gx = &mut grad_in[t * d..(t + 1) * d];
                let wr_base = row * d;
                for k in 0..d {
                    gw[k] += g * x_t[k];
                    gx[k] += g * l.w[wr_base + k];
                }
                if t > 0 {
                    let gu = &mut l.grad_u[row * h..(row + 1) * h];
                    let ur_base = row * h;
                    for k in 0..h {
                        gu[k] += g * h_prev[k];
                        dh_prev[k] += g * l.u[ur_base + k];
                    }
                }
            }
            dh = dh_prev;
        }
        grad_in
    }

    fn assert_bits_eq(what: &str, got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len(), "{what} length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs textbook {w}");
        }
    }

    #[test]
    fn forward_and_backward_are_bit_identical_to_textbook_loops() {
        use rand::Rng;
        let mut draw = ChaCha8Rng::seed_from_u64(41);
        // Roughly a quarter of the values are exact zeros, so inputs hit
        // `0·w` products and upstream zeros drive whole gate rows of dz
        // to zero (the skip path); forget rows at t = 0 are always zero.
        let sparse = |n: usize, rng: &mut ChaCha8Rng| -> Vec<f32> {
            (0..n)
                .map(|_| {
                    if rng.gen_bool(0.25) {
                        0.0
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect()
        };
        // Timesteps cross the 8-lane tile; features include odd counts.
        let shapes = [
            (1, 1, 1),
            (1, 3, 7),
            (5, 7, 7),
            (8, 1, 32),
            (9, 13, 33),
            (16, 5, 1),
            (16, 11, 33),
            (9, 4, 32),
            (5, 1700, 32),
        ];
        for (t, d, h) in shapes {
            let mut fast = Lstm::new(t, d, h, &mut draw).unwrap();
            let mut textbook = fast.clone();
            for step in 0..3 {
                let input = sparse(t * d, &mut draw);
                let upstream = sparse(h, &mut draw);
                let ctx = format!("T={t} D={d} H={h} step {step}");
                let out = fast.forward(&input, true);
                assert_bits_eq(
                    &format!("{ctx} output"),
                    &out,
                    &textbook_forward(&mut textbook, &input),
                );
                let grad_in = fast.backward(&upstream, true);
                let want_in = textbook_backward(&mut textbook, &upstream);
                assert_bits_eq(&format!("{ctx} grad_in"), &grad_in, &want_in);
                assert_bits_eq(&format!("{ctx} grad_w"), &fast.grad_w, &textbook.grad_w);
                assert_bits_eq(&format!("{ctx} grad_u"), &fast.grad_u, &textbook.grad_u);
                assert_bits_eq(&format!("{ctx} grad_b"), &fast.grad_b, &textbook.grad_b);
            }
        }
    }

    #[test]
    fn rows_match_only_bit_equal_rows() {
        let x = [0.5f32, 0.0];
        let neg_zero = [0.5f32, -0.0];
        let ulp = [0.5f32, f32::from_bits(1)];
        let w = [0.25f32, 1.0];
        let first: Vec<f32> = [x, x, neg_zero, ulp, neg_zero].concat();
        let second: Vec<f32> = [x, neg_zero, ulp, w, w].concat();
        let mut rows = Rows::default();
        rows.push(&first, 2, 5);
        assert_eq!(rows.ids, [0, 0, 1, 2, 1]);
        rows.push(&second, 2, 5);
        assert_eq!(rows.ids[5..], [0, 1, 2, 3, 3]);
        assert_eq!(rows.distinct.len(), 4);
        // Only the last window's rows survive a group boundary.
        rows.wx = vec![0.0; 4 * 3];
        rows.keep_last(5, 3);
        assert_eq!(rows.ids, [0, 1, 2, 3, 3]);
        assert_eq!(rows.distinct, [&x[..], &neg_zero, &ulp, &w]);
        assert_eq!(rows.wx.len(), 4 * 3);
    }

    /// Rows in plateaus, with neighbours that differ only in the sign of
    /// a zero or by one ULP, and rows that repeat one two steps back.
    fn row_stream(n: usize, d: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f32>> {
        use rand::Rng;
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
        for i in 0..n {
            let row = match (i % 5, rows.last()) {
                (1, Some(prev)) => prev.clone(),
                (2, Some(prev)) => {
                    let mut row = prev.clone();
                    row[0] = -row[0];
                    row
                }
                (3, Some(prev)) => {
                    let mut row = prev.clone();
                    row[d - 1] = f32::from_bits(row[d - 1].to_bits() + 1);
                    row
                }
                (4, Some(_)) => rows[i - 2].clone(),
                _ => {
                    let mut row: Vec<f32> = (0..d).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                    row[0] = 0.0;
                    row
                }
            };
            rows.push(row);
        }
        rows
    }

    #[test]
    fn forward_batch_is_bit_identical_to_forward() {
        let mut draw = ChaCha8Rng::seed_from_u64(43);
        // Timesteps below, at and above the 8-lane tile; odd unit counts.
        for (t, d, h) in [(1, 3, 2), (5, 13, 7), (8, 1, 3), (9, 6, 4), (5, 1700, 32)] {
            let mut layer = Lstm::new(t, d, h, &mut draw).unwrap();
            let rows = row_stream(3 * GROUP / 2 + t, d, &mut draw);
            let sliding: Vec<Vec<f32>> = rows.windows(t).map(|w| w.concat()).collect();
            let disjoint: Vec<Vec<f32>> = rows.chunks_exact(t).map(|w| w.concat()).collect();
            // Sliding windows as views of one buffer share their rows' memory.
            let buffer = rows.concat();
            let views: Vec<&[f32]> = buffer.windows(t * d).step_by(d).collect();
            let copies: Vec<&[f32]> = sliding.iter().map(Vec::as_slice).collect();
            let disjoint: Vec<&[f32]> = disjoint.iter().map(Vec::as_slice).collect();
            let kinds = [("sliding", &copies), ("views", &views), ("disjoint", &disjoint)];
            for (kind, windows) in kinds {
                let want: Vec<Vec<f32>> = windows.iter().map(|w| layer.forward(w, false)).collect();
                for size in [1, 7, GROUP + 1, windows.len()] {
                    let mut got = Vec::new();
                    for refs in windows.chunks(size) {
                        got.extend(layer.forward_batch(refs));
                    }
                    assert_eq!(got.len(), want.len());
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let ctx = format!("T={t} D={d} H={h} {kind} batch {size} window {i}");
                        assert_bits_eq(&ctx, g, w);
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(Lstm::new(0, 3, 3, &mut rng()).is_err());
        assert!(Lstm::new(3, 0, 3, &mut rng()).is_err());
        assert!(Lstm::new(3, 3, 0, &mut rng()).is_err());
    }
}
