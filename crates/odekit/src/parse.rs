//! A small text front-end for writing equation systems the way the paper does.
//!
//! The grammar accepts one line per variable:
//!
//! ```text
//! x' = -beta*x*y + alpha*z
//! y' = beta*x*y - gamma*y
//! z' = gamma*y - alpha*z
//! ```
//!
//! Identifiers on the left-hand side (before `'`) become the system variables
//! (in order of appearance); identifiers on the right-hand side are either
//! variables or named parameters supplied to [`parse_system`]. Each term is a
//! product of numbers, parameters and variables (optionally raised to a
//! positive integer power with `^`; a variable's summed exponent in a term
//! must fit `i32`), and terms are combined with `+` and `-`.
//! Lines that are empty or start with `#` are ignored.

use crate::error::OdeError;
use crate::poly::Polynomial;
use crate::system::EquationSystem;
use crate::term::Term;
use crate::Result;
use std::collections::HashMap;

/// Parses a multi-line equation system description.
///
/// `params` supplies values for named constants (e.g. `beta`, `gamma`)
/// appearing in the text.
///
/// # Errors
///
/// Returns [`OdeError::Parse`] for syntax errors, unknown identifiers, or
/// missing equations, with a byte position relative to the offending line.
///
/// # Examples
///
/// ```
/// use odekit::parse::parse_system;
/// use odekit::taxonomy;
///
/// let sys = parse_system(
///     "x' = -beta*x*y + alpha*z\n\
///      y' = beta*x*y - gamma*y\n\
///      z' = gamma*y - alpha*z",
///     &[("beta", 4.0), ("gamma", 1.0), ("alpha", 0.01)],
/// )?;
/// assert_eq!(sys.dim(), 3);
/// assert!(taxonomy::is_completely_partitionable(&sys));
/// # Ok::<(), odekit::OdeError>(())
/// ```
pub fn parse_system(text: &str, params: &[(&str, f64)]) -> Result<EquationSystem> {
    let params: HashMap<&str, f64> = params.iter().copied().collect();

    // First pass: collect variable names from the left-hand sides.
    let mut lines = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (lhs, rhs) = line.split_once('=').ok_or(OdeError::Parse {
            position: 0,
            message: format!("expected `var' = expression`, got `{line}`"),
        })?;
        let lhs = lhs.trim();
        let var = lhs
            .strip_suffix('\'')
            .map(str::trim)
            .ok_or(OdeError::Parse {
                position: 0,
                message: format!("left-hand side `{lhs}` must end with ' (prime)"),
            })?;
        if var.is_empty() || !is_ident(var) {
            return Err(OdeError::Parse {
                position: 0,
                message: format!("invalid variable name `{var}`"),
            });
        }
        if names.iter().any(|n| n == var) {
            return Err(OdeError::DuplicateVariable(var.to_string()));
        }
        names.push(var.to_string());
        lines.push((var.to_string(), rhs.trim().to_string()));
    }
    if names.is_empty() {
        return Err(OdeError::EmptySystem);
    }

    // Second pass: parse each right-hand side into a polynomial.
    let dim = names.len();
    let var_index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut equations = vec![Polynomial::zero(); dim];
    for (var, rhs) in &lines {
        let idx = var_index[var.as_str()];
        equations[idx] = parse_expression(rhs, &var_index, &params, dim)?;
    }
    EquationSystem::new(names, equations)
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Plus,
    Minus,
    Star,
    Caret,
}

fn tokenize(src: &str) -> Result<Vec<(usize, Token)>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                tokens.push((i, Token::Plus));
                i += 1;
            }
            '-' => {
                tokens.push((i, Token::Minus));
                i += 1;
            }
            '*' => {
                tokens.push((i, Token::Star));
                i += 1;
            }
            '^' => {
                tokens.push((i, Token::Caret));
                i += 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'-' || bytes[i] == b'+')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let text = &src[start..i];
                let value = text.parse::<f64>().map_err(|_| OdeError::Parse {
                    position: start,
                    message: format!("invalid number `{text}`"),
                })?;
                tokens.push((start, Token::Number(value)));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push((start, Token::Ident(src[start..i].to_string())));
            }
            other => {
                return Err(OdeError::Parse {
                    position: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(tokens)
}

fn parse_expression(
    src: &str,
    vars: &HashMap<&str, usize>,
    params: &HashMap<&str, f64>,
    dim: usize,
) -> Result<Polynomial> {
    let tokens = tokenize(src)?;
    if tokens.is_empty() {
        return Err(OdeError::Parse {
            position: 0,
            message: "empty expression".to_string(),
        });
    }
    let mut poly = Polynomial::zero();
    let mut pos = 0usize;

    loop {
        // Optional sign(s).
        let mut sign = 1.0;
        while pos < tokens.len() {
            match tokens[pos].1 {
                Token::Plus => pos += 1,
                Token::Minus => {
                    sign = -sign;
                    pos += 1;
                }
                _ => break,
            }
        }
        if pos >= tokens.len() {
            return Err(OdeError::Parse {
                position: tokens.last().map_or(0, |t| t.0),
                message: "expression ends with a dangling sign".to_string(),
            });
        }
        // One term: factors separated by '*'.
        let mut coeff = sign;
        let mut exponents = vec![0u32; dim];
        loop {
            let (tpos, tok) = &tokens[pos];
            match tok {
                Token::Number(v) => {
                    coeff *= v;
                    pos += 1;
                }
                Token::Ident(name) => {
                    pos += 1;
                    // Optional ^integer exponent.
                    let mut exp = 1u32;
                    if pos + 1 < tokens.len() && tokens[pos].1 == Token::Caret {
                        match tokens[pos + 1].1 {
                            Token::Number(v)
                                if v.fract() == 0.0 && (1.0..=f64::from(i32::MAX)).contains(&v) =>
                            {
                                exp = v as u32;
                                pos += 2;
                            }
                            _ => {
                                return Err(OdeError::Parse {
                                    position: tokens[pos + 1].0,
                                    message: "exponent must be a positive integer that fits i32"
                                        .to_string(),
                                })
                            }
                        }
                    } else if pos < tokens.len() && tokens[pos].1 == Token::Caret {
                        return Err(OdeError::Parse {
                            position: tokens[pos].0,
                            message: "missing exponent after ^".to_string(),
                        });
                    }
                    if let Some(&vi) = vars.get(name.as_str()) {
                        exponents[vi] = exponents[vi]
                            .checked_add(exp)
                            .filter(|&e| i32::try_from(e).is_ok())
                            .ok_or_else(|| OdeError::Parse {
                                position: *tpos,
                                message: format!("exponent of `{name}` overflows i32"),
                            })?;
                    } else if let Some(&value) = params.get(name.as_str()) {
                        coeff *= value.powi(exp as i32);
                    } else {
                        return Err(OdeError::Parse {
                            position: *tpos,
                            message: format!(
                                "unknown identifier `{name}` (not a variable or parameter)"
                            ),
                        });
                    }
                }
                other => {
                    return Err(OdeError::Parse {
                        position: *tpos,
                        message: format!("expected a factor, found {other:?}"),
                    })
                }
            }
            // Continue this term only on '*'.
            if pos < tokens.len() && tokens[pos].1 == Token::Star {
                pos += 1;
                if pos >= tokens.len() {
                    return Err(OdeError::Parse {
                        position: tokens[pos - 1].0,
                        message: "expression ends with a dangling *".to_string(),
                    });
                }
                continue;
            }
            break;
        }
        poly.push(Term::new(coeff, exponents));
        if pos >= tokens.len() {
            break;
        }
        // Next token must start a new term with + or -.
        match tokens[pos].1 {
            Token::Plus | Token::Minus => continue,
            _ => {
                return Err(OdeError::Parse {
                    position: tokens[pos].0,
                    message: "expected + or - between terms".to_string(),
                })
            }
        }
    }
    Ok(poly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy;

    #[test]
    fn parses_the_endemic_system() {
        let sys = parse_system(
            "# endemic equations (1)\n\
             x' = -beta*x*y + alpha*z\n\
             y' = beta*x*y - gamma*y\n\
             z' = gamma*y - alpha*z",
            &[("beta", 4.0), ("gamma", 1.0), ("alpha", 0.01)],
        )
        .unwrap();
        assert_eq!(sys.dim(), 3);
        assert!(taxonomy::is_completely_partitionable(&sys));
        assert!(taxonomy::is_restricted_polynomial(&sys));
        let rhs = sys.eval_rhs(&[0.25, 0.5, 0.25]);
        assert!((rhs[0] - (-4.0 * 0.25 * 0.5 + 0.01 * 0.25)).abs() < 1e-12);
    }

    #[test]
    fn parses_powers_and_scientific_notation() {
        let sys = parse_system("x' = -3*x^2 + 1.5e-2*y\ny' = 3*x^2 - 1.5e-2*y", &[]).unwrap();
        let rhs = sys.eval_rhs(&[2.0, 1.0]);
        assert!((rhs[0] - (-12.0 + 0.015)).abs() < 1e-12);
        assert!((rhs[0] + rhs[1]).abs() < 1e-12);
    }

    #[test]
    fn parses_lv_rewritten_form() {
        let sys = parse_system(
            "x' = 3*x*z - 3*x*y\n\
             y' = 3*y*z - 3*x*y\n\
             z' = -3*x*z - 3*y*z + 3*x*y + 3*x*y",
            &[],
        )
        .unwrap();
        assert!(taxonomy::is_completely_partitionable(&sys));
        // z' keeps its two separate +3xy terms.
        let z = sys.var("z").unwrap();
        assert_eq!(sys.equation(z).terms().len(), 4);
    }

    #[test]
    fn unknown_identifier_is_an_error() {
        let err = parse_system("x' = -q*x\ny' = q*x", &[]).unwrap_err();
        assert!(matches!(err, OdeError::Parse { .. }));
        assert!(err.to_string().contains('q'));
    }

    #[test]
    fn missing_prime_is_an_error() {
        let err = parse_system("x = -x", &[]).unwrap_err();
        assert!(matches!(err, OdeError::Parse { .. }));
    }

    #[test]
    fn missing_equals_is_an_error() {
        let err = parse_system("x' -x", &[]).unwrap_err();
        assert!(matches!(err, OdeError::Parse { .. }));
    }

    #[test]
    fn duplicate_lhs_is_an_error() {
        let err = parse_system("x' = -x\nx' = x", &[]).unwrap_err();
        assert!(matches!(err, OdeError::DuplicateVariable(_)));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(parse_system("", &[]), Err(OdeError::EmptySystem)));
        assert!(matches!(
            parse_system("# only a comment", &[]),
            Err(OdeError::EmptySystem)
        ));
    }

    #[test]
    fn dangling_sign_and_bad_exponent_are_errors() {
        assert!(parse_system("x' = -", &[]).is_err());
        assert!(parse_system("x' = x^", &[]).is_err());
        assert!(parse_system("x' = x^0.5", &[]).is_err());
        assert!(parse_system("x' = x x", &[]).is_err());
        assert!(parse_system("x' = x ? y", &[]).is_err());
    }

    fn assert_parse_error(text: &str, params: &[(&str, f64)]) {
        match parse_system(text, params) {
            Err(OdeError::Parse { .. }) => {}
            other => panic!("`{text}` should be a parse error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_star_is_an_error() {
        assert_parse_error("x' = x*", &[]);
    }

    #[test]
    fn summed_exponents_that_overflow_are_errors() {
        assert_parse_error("x' = x^4294967295*x", &[]);
    }

    #[test]
    fn parameter_exponent_beyond_i32_is_an_error() {
        assert_parse_error("x' = b^3000000000*x", &[("b", 2.0)]);
    }

    #[test]
    fn huge_exponent_is_an_error() {
        assert_parse_error("x' = x^1e20", &[]);
    }

    #[test]
    fn parameter_powers_are_folded_into_coefficient() {
        let sys = parse_system("x' = -k^2*x\ny' = k^2*x", &[("k", 3.0)]).unwrap();
        let rhs = sys.eval_rhs(&[1.0, 0.0]);
        assert!((rhs[0] + 9.0).abs() < 1e-12);
    }

    #[test]
    fn double_negative_signs() {
        let sys = parse_system("x' = - -x\ny' = -x", &[]).unwrap();
        assert!((sys.eval_rhs(&[2.0, 0.0])[0] - 2.0).abs() < 1e-12);
    }
}
