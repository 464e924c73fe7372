//! Order statistics for repeated timings and the FNV-1a output checksum.

/// The three quartile cut points of `values`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread printed here matches the one an outside harness computes from
/// the same numbers. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            [cut(1), cut(2), cut(3)]
        }
    }
}

/// Median of `values` (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Smallest of `values`; NaN when there are none.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Sum over the columns of `rows` of each column's smallest entry; NaN
/// unless there is a row and all rows are equally long.
pub fn sum_of_column_minima(rows: &[Vec<f64>]) -> f64 {
    let Some(first) = rows.first() else { return f64::NAN };
    if rows.iter().any(|r| r.len() != first.len()) {
        return f64::NAN;
    }
    (0..first.len()).map(|c| rows.iter().map(|r| r[c]).fold(f64::INFINITY, f64::min)).sum()
}

/// Interquartile range as a share of the median — the run-to-run spread a
/// regression bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// FNV-1a over the bit patterns of `data`: the bit-identity checksum of a
/// run's final weights or buffers.
pub fn fnv1a_f32(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(min(&[5.0, 1.0, 3.0]), 1.0);
        assert!(min(&[]).is_nan());
        let rows = [vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 1.0]];
        assert_eq!(sum_of_column_minima(&rows), 1.0 + 4.0 + 1.0);
        assert!(sum_of_column_minima(&[]).is_nan());
        assert!(sum_of_column_minima(&[vec![1.0], vec![1.0, 2.0]]).is_nan());
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn fnv_distinguishes_bit_patterns() {
        assert_eq!(fnv1a_f32(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_f32(&[0.0]), fnv1a_f32(&[-0.0]));
        assert_eq!(fnv1a_f32(&[1.0, 2.0]), fnv1a_f32(&[1.0, 2.0]));
        assert_ne!(fnv1a_f32(&[1.0, 2.0]), fnv1a_f32(&[2.0, 1.0]));
    }
}
