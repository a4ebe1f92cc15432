//! Small numeric helpers shared by the sketches.

/// Median of a slice, sorting it in place with a NaN-safe total order.
/// Even-length slices average the two central elements (the convention the
/// sketches' analyses use).  Returns 0.0 for an empty slice.
pub(crate) fn median_in_place(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_lengths() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_in_place(&mut []), 0.0);
        assert_eq!(median_in_place(&mut [7.0]), 7.0);
    }

    #[test]
    fn nan_does_not_panic() {
        // total_cmp sorts NaN to the ends instead of panicking.
        let m = median_in_place(&mut [1.0, f64::NAN, 2.0]);
        assert_eq!(m, 2.0);
    }
}
