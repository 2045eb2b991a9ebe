//! Integer-exact fixed-precision number formatting.
//!
//! `format!("{:.3}", v)` on an `f64` takes core's exact-mode float
//! formatter, which is general enough to print any precision and so costs
//! several hundred nanoseconds a value. Every table cell, CSV field and
//! SVG coordinate of a report goes through it. [`Fixed`] prints the same
//! bytes from one `u128` product: a finite `f64` is `m·2^e` with
//! `m < 2^53`, so `m·10^p` fits in 110 bits for `p ≤ 17`, and the value
//! rounded to `p` decimals is that product shifted right by `-e`, rounded
//! half to even on the exact remainder. That is exactly what std prints.

use std::fmt;

/// An `f64` whose `{:.N}` rendering takes the integer-exact path.
///
/// `format!("{:.3}", Fixed(v))` prints byte for byte what
/// `format!("{:.3}", v)` prints. Anything the exact path does not cover
/// (no precision, a width, fill or sign flag, NaN or ±inf, a precision
/// above 17, or a rounded value of 2^64 or more) falls back to `f64`'s
/// own `Display`, so every format spec means what it means for `f64`.
///
/// ```
/// use simreport::fixed::Fixed;
///
/// assert_eq!(format!("{:.3}", Fixed(1.23456)), "1.235");
/// assert_eq!(format!("{:.2}", Fixed(0.125)), "0.12"); // ties go to even
/// assert_eq!(format!("{:.3}", Fixed(-0.0001)), "-0.000");
/// assert_eq!(format!("{:>8.1}", Fixed(2.25)), "     2.2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64);

/// `10^p` for every precision the exact path takes.
const POW10: [u64; 18] = {
    let mut table = [1u64; 18];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// Sign, up to 20 integer digits, the point and up to 17 decimals.
const BUF_LEN: usize = 40;

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let plain =
            f.width().is_none() && !f.sign_plus() && !f.alternate() && !f.sign_aware_zero_pad();
        if let (true, Some(prec)) = (plain, f.precision()) {
            let mut buf = [0u8; BUF_LEN];
            if let Some(start) = exact(self.0, prec, &mut buf) {
                // Only ASCII digits, '.' and '-' were written.
                return f.write_str(std::str::from_utf8(&buf[start..]).map_err(|_| fmt::Error)?);
            }
        }
        fmt::Display::fmt(&self.0, f)
    }
}

/// Writes `v` rounded to `prec` decimals into the tail of `buf` and
/// returns where the text starts, or `None` when the value or precision
/// is outside the exact path.
fn exact(v: f64, prec: usize, buf: &mut [u8; BUF_LEN]) -> Option<usize> {
    if prec >= POW10.len() || !v.is_finite() {
        return None;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    // |v| = m·2^e exactly; subnormals have no implicit bit.
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let q = u128::from(m) * u128::from(POW10[prec]);
    let n = if e >= 0 {
        // An integer value: the scaled product must not lose high bits.
        if e as u32 > q.leading_zeros() {
            return None;
        }
        q << e
    } else {
        let shift = e.unsigned_abs();
        if shift >= 128 {
            // q < 2^110 sits below half a unit of 2^-shift: rounds to 0.
            0
        } else {
            let n = q >> shift;
            let rem = q & ((1u128 << shift) - 1);
            let half = 1u128 << (shift - 1);
            if rem > half || (rem == half && n & 1 == 1) {
                n + 1
            } else {
                n
            }
        }
    };
    let n = u64::try_from(n).ok()?;
    let mut at = buf.len();
    let mut put = |byte: u8| {
        at -= 1;
        buf[at] = byte;
    };
    let mut int = n / POW10[prec];
    if prec > 0 {
        let mut frac = n % POW10[prec];
        for _ in 0..prec {
            put(b'0' + (frac % 10) as u8);
            frac /= 10;
        }
        put(b'.');
    }
    loop {
        put(b'0' + (int % 10) as u8);
        int /= 10;
        if int == 0 {
            break;
        }
    }
    // std prints the sign of the value, not of the rounded digits:
    // -0.0 and -0.0001 at `.3` are both "-0.000".
    if v.is_sign_negative() {
        put(b'-');
    }
    Some(at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// splitmix64 over a counter: the same seeded values on every run.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Formats `v` at `prec` both ways into reused buffers and asserts
    /// the bytes agree.
    fn check(v: f64, prec: usize, ours: &mut String, std: &mut String) {
        ours.clear();
        std.clear();
        write!(ours, "{:.prec$}", Fixed(v)).unwrap();
        write!(std, "{v:.prec$}").unwrap();
        assert_eq!(ours, std, "{v:e} (bits {:#018x}) at .{prec}", v.to_bits());
    }

    #[test]
    fn matches_std_at_every_precision() {
        let (mut ours, mut std) = (String::new(), String::new());
        let mut rng = Rng(0x5eed);
        // A million values, each at one precision in turn, so every
        // precision 0–17 sees ~55k of them.
        for i in 0..1_000_000usize {
            let sign = if rng.next() & 1 == 0 { 1.0 } else { -1.0 };
            let v = match i % 5 {
                // Any bit pattern: subnormals, NaN, ±inf, huge and tiny.
                0 => f64::from_bits(rng.next()),
                // Report-sized magnitudes with full mantissas.
                1 => (rng.unit() - 0.5) * 10f64.powi((rng.next() % 12) as i32 - 4),
                // Decimal grids, where binary and decimal disagree most.
                2 => (rng.next() % 2_000_000) as f64 / 1000.0 - 1000.0,
                // Exact binary ties k/8 and k/2^j.
                3 => sign * (rng.next() % 100_000) as f64 / f64::from(1u32 << (rng.next() % 12)),
                // Near and above 2^53, where every value is an integer.
                _ => sign * 2f64.powi(50 + (rng.next() % 16) as i32) * (1.0 + rng.unit()),
            };
            check(v, i % 18, &mut ours, &mut std);
        }
    }

    #[test]
    fn edge_values_match_std_at_every_precision() {
        let (mut ours, mut std) = (String::new(), String::new());
        let two53 = (1u64 << 53) as f64;
        let mut values = vec![
            0.0,
            -0.0,
            -0.0001,
            0.0005,
            0.125,
            2.5,
            0.5,
            1.5,
            -2.5,
            9.9995,
            999_999.999_5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            two53,
            two53 - 1.0,
            two53 + 2.0,
            two53 * 3.0,
            u64::MAX as f64,
            1e19,
            1e20,
            1.8e19,
        ];
        for k in -64..=64 {
            values.push(f64::from(k) / 8.0);
        }
        for v in values {
            for prec in 0..=17 {
                check(v, prec, &mut ours, &mut std);
            }
        }
    }

    #[test]
    fn ties_round_half_to_even() {
        assert_eq!(format!("{:.2}", Fixed(0.125)), "0.12");
        assert_eq!(format!("{:.2}", Fixed(0.375)), "0.38");
        assert_eq!(format!("{:.0}", Fixed(2.5)), "2");
        assert_eq!(format!("{:.0}", Fixed(3.5)), "4");
        assert_eq!(format!("{:.3}", Fixed(0.0)), "0.000");
        assert_eq!(format!("{:.3}", Fixed(-0.0)), "-0.000");
        assert_eq!(format!("{:.3}", Fixed(-0.0001)), "-0.000");
    }

    #[test]
    fn flags_and_missing_precision_fall_back_to_std() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            -2.5,
            1234.5678,
            f64::NAN,
            f64::INFINITY,
        ] {
            assert_eq!(format!("{:>8.3}", Fixed(v)), format!("{v:>8.3}"));
            assert_eq!(format!("{:+.2}", Fixed(v)), format!("{v:+.2}"));
            assert_eq!(format!("{:<9.1}|", Fixed(v)), format!("{v:<9.1}|"));
            assert_eq!(format!("{:08.2}", Fixed(v)), format!("{v:08.2}"));
            assert_eq!(format!("{}", Fixed(v)), format!("{v}"));
            assert_eq!(format!("{:.20}", Fixed(v)), format!("{v:.20}"));
        }
    }
}
