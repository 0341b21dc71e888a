//! A minimal SPICE-style netlist reader.
//!
//! The pipeline's input (paper Fig. 1) is a circuit schematic / netlist. This
//! module parses the common flat SPICE card format so that external netlists
//! can be fed into structure recognition without hand-building a
//! [`Schematic`]:
//!
//! * `M<name> d g s b <model> [W=… L=… NF=… M=…]` — MOS transistors (the
//!   model-name *prefix* decides polarity: `p…`/`pmos…`/`pch…`/`pfet…` are
//!   PMOS, everything else — including low-power spellings like `nmos_lp` or
//!   `nch_hvt_lp` — is NMOS),
//! * `R<name> a b <value>` / `C<name> a b <value>` — passives,
//! * `D<name> a k <model>` and `Q<name> c b e <model>` — diodes / BJTs,
//! * `+` at the start of a line continues the previous card,
//! * `*` and `;` comments are dropped; `.end`/`.ends`/other dot-cards and
//!   unknown card types are skipped, with a `(line, reason)` record appended
//!   to [`Schematic::skipped`] for each.
//!
//! Dimensions are read in micrometres (plain numbers) with the usual
//! engineering suffixes (`u`, `n`, `m`, `k`) accepted.

use std::fmt;

use crate::device::{Device, DeviceId, DeviceKind};
use crate::netlist::Schematic;

/// Errors produced while parsing a SPICE netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpiceError {
    /// A device card has fewer fields than its type requires.
    TooFewFields {
        /// The line number (1-based).
        line: usize,
        /// The device card's leading token.
        card: String,
    },
    /// A numeric parameter could not be parsed.
    BadNumber {
        /// The line number (1-based).
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A `+` continuation line appeared before any card it could extend.
    DanglingContinuation {
        /// The line number (1-based).
        line: usize,
    },
    /// A device dimension (`W`, `L`, `NF`, `M`) or a passive's value is
    /// non-finite or not positive, so the device has no physical footprint.
    InvalidDimension {
        /// The line number (1-based).
        line: usize,
        /// The device card's leading token.
        card: String,
        /// The offending parameter (`"W"`, `"L"`, `"NF"`, `"M"` or `"value"`).
        param: &'static str,
    },
    /// A device's dimensions are each valid but imply a footprint above
    /// [`MAX_DEVICE_AREA_UM2`], so they cannot describe a physical device.
    FootprintTooLarge {
        /// The line number (1-based).
        line: usize,
        /// The device card's leading token.
        card: String,
    },
}

/// The largest footprint, in µm², a single parsed device may have: 1 cm²,
/// the area of a whole large die. Any one analog device is orders of
/// magnitude smaller, so a card implying more (`W=1e30`, a huge passive
/// value, a saturated `M`) is an error rather than a layout.
pub const MAX_DEVICE_AREA_UM2: f64 = 1e8;

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::TooFewFields { line, card } => {
                write!(f, "line {line}: device card `{card}` has too few fields")
            }
            SpiceError::BadNumber { line, token } => {
                write!(f, "line {line}: cannot parse number `{token}`")
            }
            SpiceError::DanglingContinuation { line } => {
                write!(f, "line {line}: `+` continuation with no preceding card")
            }
            SpiceError::InvalidDimension { line, card, param } => {
                write!(
                    f,
                    "line {line}: device `{card}` has a non-finite or non-positive {param}"
                )
            }
            SpiceError::FootprintTooLarge { line, card } => write!(
                f,
                "line {line}: device `{card}` implies a footprint above the \
                 {MAX_DEVICE_AREA_UM2:e} µm² ceiling"
            ),
        }
    }
}

impl std::error::Error for SpiceError {}

/// Parses a numeric value with an optional engineering suffix, returning the
/// value scaled to micrometres-friendly units (`u` → 1, `n` → 1e-3, `m` → 1e3,
/// `k` → 1e6; a bare number is taken as already being in µm).
fn parse_value(token: &str, line: usize) -> Result<f64, SpiceError> {
    let lower = token.trim().to_ascii_lowercase();
    let (digits, scale) = match lower.chars().last() {
        Some('u') => (&lower[..lower.len() - 1], 1.0),
        Some('n') => (&lower[..lower.len() - 1], 1e-3),
        Some('m') => (&lower[..lower.len() - 1], 1e3),
        Some('k') => (&lower[..lower.len() - 1], 1e6),
        _ => (lower.as_str(), 1.0),
    };
    digits
        .parse::<f64>()
        .map(|v| v * scale)
        .map_err(|_| SpiceError::BadNumber {
            line,
            token: token.to_string(),
        })
}

/// Decides MOS polarity from the model name.
///
/// Polarity is carried by the model *prefix* (`pmos…`, `pch…`, `pfet…`, or a
/// bare leading `p`), not by `p` appearing anywhere: flavour suffixes such as
/// `_lp` (low power) or `_hvt_lp` would otherwise flip NMOS models like
/// `nmos_lp` and `nch_hvt_lp` to PMOS. Unrecognized prefixes default to NMOS.
fn mos_kind(model: &str) -> DeviceKind {
    let lower = model.to_ascii_lowercase();
    if ["pmos", "pch", "pfet"].iter().any(|p| lower.starts_with(p)) {
        return DeviceKind::Pmos;
    }
    if ["nmos", "nch", "nfet"].iter().any(|p| lower.starts_with(p)) {
        return DeviceKind::Nmos;
    }
    match lower.chars().next() {
        Some('p') => DeviceKind::Pmos,
        _ => DeviceKind::Nmos,
    }
}

/// Checks that a device dimension is finite and positive.
fn positive(value: f64, line: usize, card: &str, param: &'static str) -> Result<f64, SpiceError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(SpiceError::InvalidDimension {
            line,
            card: card.to_string(),
            param,
        })
    }
}

/// Adds `device` unless its footprint exceeds [`MAX_DEVICE_AREA_UM2`].
fn add_sized(
    schematic: &mut Schematic,
    device: Device,
    line: usize,
) -> Result<DeviceId, SpiceError> {
    if device.area_um2() <= MAX_DEVICE_AREA_UM2 {
        Ok(schematic.add_device(device))
    } else {
        Err(SpiceError::FootprintTooLarge {
            line,
            card: device.name,
        })
    }
}

/// Extracts a `KEY=value` dimension (case-insensitive key) from the fields of
/// a card, if present; a present value must be finite and positive.
fn named_param(fields: &[&str], key: &'static str, line: usize) -> Result<Option<f64>, SpiceError> {
    for field in fields {
        if let Some((k, v)) = field.split_once('=') {
            if k.eq_ignore_ascii_case(key) {
                return positive(parse_value(v, line)?, line, fields[0], key).map(Some);
            }
        }
    }
    Ok(None)
}

/// Folds the physical lines of a SPICE source into logical cards.
///
/// Strips `;` comments, drops blank and `*` comment lines, and appends `+`
/// continuation lines (space-joined) to the preceding card. Each card keeps
/// the line number of its first physical line for error reporting.
///
/// # Errors
///
/// Returns [`SpiceError::DanglingContinuation`] when a `+` line appears
/// before any card it could extend (comment lines do not count as cards).
fn logical_cards(text: &str) -> Result<Vec<(usize, String)>, SpiceError> {
    let mut cards: Vec<(usize, String)> = Vec::new();
    for (line_no, raw_line) in text.lines().enumerate() {
        let line = line_no + 1;
        let stripped = raw_line.split(';').next().unwrap_or("").trim();
        if stripped.is_empty() || stripped.starts_with('*') {
            continue;
        }
        if let Some(rest) = stripped.strip_prefix('+') {
            match cards.last_mut() {
                Some((_, card)) => {
                    card.push(' ');
                    card.push_str(rest.trim());
                }
                None => return Err(SpiceError::DanglingContinuation { line }),
            }
            continue;
        }
        cards.push((line, stripped.to_string()));
    }
    Ok(cards)
}

/// Parses a flat SPICE netlist into a device-level [`Schematic`].
///
/// `+` continuation lines are folded into the preceding card before
/// tokenizing, so multi-line device cards keep their parameters. Unknown card
/// types and dot-directives are skipped, with a `(line, reason)` entry pushed
/// onto [`Schematic::skipped`] for each.
///
/// # Errors
///
/// Returns a [`SpiceError`] for malformed device cards, for a non-finite or
/// non-positive device dimension or passive value, for a device whose
/// footprint exceeds [`MAX_DEVICE_AREA_UM2`], and for a leading `+`
/// continuation with no card before it.
pub fn parse_spice(name: &str, text: &str) -> Result<Schematic, SpiceError> {
    let mut schematic = Schematic::new(name);
    // (net name, device, terminal) triples collected before being grouped.
    let mut connections: Vec<(String, DeviceId, &'static str)> = Vec::new();

    for (line, card_text) in logical_cards(text)? {
        if card_text.starts_with('.') {
            let directive = card_text.split_whitespace().next().unwrap_or(".");
            schematic
                .skipped
                .push((line, format!("dot-directive `{directive}` skipped")));
            continue;
        }
        let fields: Vec<&str> = card_text.split_whitespace().collect();
        let card = fields[0];
        let kind_char = card.chars().next().unwrap_or(' ').to_ascii_uppercase();
        match kind_char {
            'M' => {
                if fields.len() < 6 {
                    return Err(SpiceError::TooFewFields {
                        line,
                        card: card.to_string(),
                    });
                }
                let kind = mos_kind(fields[5]);
                let w = named_param(&fields, "W", line)?.unwrap_or(1.0);
                let l = named_param(&fields, "L", line)?.unwrap_or(0.5);
                let nf = named_param(&fields, "NF", line)?.unwrap_or(1.0).max(1.0) as u32;
                let m = named_param(&fields, "M", line)?.unwrap_or(1.0).max(1.0) as u32;
                let mut device = Device::new(DeviceId(0), card, kind, w, l, nf);
                device.multiplier = m;
                let id = add_sized(&mut schematic, device, line)?;
                connections.push((fields[1].to_string(), id, "d"));
                connections.push((fields[2].to_string(), id, "g"));
                connections.push((fields[3].to_string(), id, "s"));
                connections.push((fields[4].to_string(), id, "b"));
            }
            'R' | 'C' => {
                if fields.len() < 4 {
                    return Err(SpiceError::TooFewFields {
                        line,
                        card: card.to_string(),
                    });
                }
                let kind = if kind_char == 'R' {
                    DeviceKind::Resistor
                } else {
                    DeviceKind::Capacitor
                };
                // Use the value as a crude width surrogate so areas are
                // monotone in the component value; explicit W/L win if given.
                let value = match parse_value(fields[3], line) {
                    Ok(value) => positive(value, line, card, "value")?,
                    Err(_) => 1.0,
                };
                let w = named_param(&fields, "W", line)?.unwrap_or(value.cbrt().max(0.5));
                let l = named_param(&fields, "L", line)?.unwrap_or(w * 4.0);
                let device = Device::new(DeviceId(0), card, kind, w, l, 1);
                let id = add_sized(&mut schematic, device, line)?;
                connections.push((fields[1].to_string(), id, "a"));
                connections.push((fields[2].to_string(), id, "b"));
            }
            'D' | 'Q' => {
                let min_fields = if kind_char == 'D' { 3 } else { 4 };
                if fields.len() < min_fields {
                    return Err(SpiceError::TooFewFields {
                        line,
                        card: card.to_string(),
                    });
                }
                let kind = if kind_char == 'D' {
                    DeviceKind::Diode
                } else {
                    DeviceKind::Bjt
                };
                let w = named_param(&fields, "W", line)?.unwrap_or(2.0);
                let l = named_param(&fields, "L", line)?.unwrap_or(2.0);
                let device = Device::new(DeviceId(0), card, kind, w, l, 1);
                let id = add_sized(&mut schematic, device, line)?;
                connections.push((fields[1].to_string(), id, "a"));
                connections.push((fields[2].to_string(), id, "b"));
                if kind_char == 'Q' {
                    connections.push((fields[3].to_string(), id, "c"));
                }
            }
            _ => {
                // Unknown card (subcircuit instance, source, …): record why.
                schematic
                    .skipped
                    .push((line, format!("unrecognized card `{card}` skipped")));
            }
        }
    }

    // Group the collected pins by net name, preserving first-seen order.
    let mut net_order: Vec<String> = Vec::new();
    for (net, _, _) in &connections {
        if !net_order.contains(net) {
            net_order.push(net.clone());
        }
    }
    for net in net_order {
        let pins: Vec<(DeviceId, &str)> = connections
            .iter()
            .filter(|(n, _, _)| *n == net)
            .map(|(_, d, t)| (*d, *t))
            .collect();
        schematic.connect(net, pins);
    }
    Ok(schematic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recognition::recognize;

    const FIVE_T_OTA: &str = r"* five transistor OTA
M1 outl inp tail 0 nmos W=8u L=0.5u NF=2
M2 out  inn tail 0 nmos W=8u L=0.5u NF=2
M3 outl outl vdd vdd pmos W=12u L=0.5u NF=2
M4 out  outl vdd vdd pmos W=12u L=0.5u NF=2
M5 tail vbias 0 0 nmos W=16u L=1u NF=4
C1 out 0 1.0
.end
";

    #[test]
    fn parses_devices_and_nets() {
        let schematic = parse_spice("five-t", FIVE_T_OTA).unwrap();
        assert_eq!(schematic.devices.len(), 6);
        assert_eq!(schematic.devices[0].kind, DeviceKind::Nmos);
        assert_eq!(schematic.devices[2].kind, DeviceKind::Pmos);
        assert_eq!(schematic.devices[5].kind, DeviceKind::Capacitor);
        assert!((schematic.devices[0].width_um - 8.0).abs() < 1e-9);
        assert_eq!(schematic.devices[4].fingers, 4);
        // The tail net connects the two input devices and the tail source.
        let tail_members = schematic
            .connections
            .iter()
            .find(|(n, _)| n == "tail")
            .map(|(_, p)| p.len())
            .unwrap();
        assert_eq!(tail_members, 3);
    }

    #[test]
    fn parsed_netlist_feeds_structure_recognition() {
        let schematic = parse_spice("five-t", FIVE_T_OTA).unwrap();
        let circuit = recognize(&schematic);
        circuit.validate().unwrap();
        let kinds: Vec<_> = circuit.blocks.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&crate::BlockKind::DifferentialPair), "{kinds:?}");
        assert!(kinds.contains(&crate::BlockKind::CurrentMirror), "{kinds:?}");
    }

    #[test]
    fn engineering_suffixes_are_scaled() {
        assert!((parse_value("8u", 1).unwrap() - 8.0).abs() < 1e-9);
        assert!((parse_value("500n", 1).unwrap() - 0.5).abs() < 1e-9);
        assert!((parse_value("2m", 1).unwrap() - 2000.0).abs() < 1e-9);
        assert!((parse_value("3", 1).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_cards_are_rejected() {
        assert!(matches!(
            parse_spice("bad", "M1 a b\n"),
            Err(SpiceError::TooFewFields { .. })
        ));
        assert!(matches!(
            parse_spice("bad", "M1 a b c d nmos W=xx\n"),
            Err(SpiceError::BadNumber { .. })
        ));
    }

    #[test]
    fn comments_and_directives_are_ignored() {
        let schematic = parse_spice(
            "c",
            "* comment only\n.subckt foo a b\nVdd vdd 0 1.8\n.ends\n",
        )
        .unwrap();
        assert!(schematic.devices.is_empty());
        assert!(schematic.connections.is_empty());
    }

    #[test]
    fn mos_polarity_follows_model_prefix_not_any_p() {
        // Low-power NMOS flavours contain a 'p' but must stay NMOS.
        let schematic = parse_spice(
            "lp",
            "M1 d g s 0 nmos_lp W=4u L=0.5u\n\
             M2 d g s 0 nch_hvt_lp W=4u L=0.5u\n\
             M3 d g vdd vdd pmos_lvt W=8u L=0.5u\n\
             M4 d g vdd vdd pch_hvt W=8u L=0.5u\n\
             M5 d g vdd vdd p33 W=8u L=0.5u\n",
        )
        .unwrap();
        let kinds: Vec<_> = schematic.devices.iter().map(|d| d.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DeviceKind::Nmos,
                DeviceKind::Nmos,
                DeviceKind::Pmos,
                DeviceKind::Pmos,
                DeviceKind::Pmos,
            ]
        );
    }

    #[test]
    fn continuation_lines_fold_into_previous_card() {
        let schematic = parse_spice(
            "cont",
            "M1 d g s 0 nmos\n+ W=8u L=0.5u\n+ NF=2 M=3\nC1 out 0\n+ 1.0\n",
        )
        .unwrap();
        assert_eq!(schematic.devices.len(), 2);
        assert!((schematic.devices[0].width_um - 8.0).abs() < 1e-9);
        assert!((schematic.devices[0].length_um - 0.5).abs() < 1e-9);
        assert_eq!(schematic.devices[0].fingers, 2);
        assert_eq!(schematic.devices[0].multiplier, 3);
        assert_eq!(schematic.devices[1].kind, DeviceKind::Capacitor);
    }

    #[test]
    fn continuation_after_comment_extends_last_card() {
        // A comment line is not a card; the `+` still extends M1.
        let schematic =
            parse_spice("cont", "M1 d g s 0 nmos\n* noise\n+ W=8u L=0.5u\n").unwrap();
        assert!((schematic.devices[0].width_um - 8.0).abs() < 1e-9);
    }

    #[test]
    fn dangling_continuation_is_an_error() {
        let err = parse_spice("bad", "* header\n+ W=8u\n").unwrap_err();
        assert_eq!(err, SpiceError::DanglingContinuation { line: 2 });
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn skipped_cards_are_reported_with_line_and_reason() {
        let schematic = parse_spice(
            "diag",
            "* comment\n.subckt foo a b\nM1 d g s 0 nmos W=4u L=0.5u\nVdd vdd 0 1.8\n.ends\n",
        )
        .unwrap();
        assert_eq!(schematic.devices.len(), 1);
        assert_eq!(schematic.skipped.len(), 3);
        assert_eq!(schematic.skipped[0].0, 2);
        assert!(schematic.skipped[0].1.contains(".subckt"));
        assert_eq!(schematic.skipped[1].0, 4);
        assert!(schematic.skipped[1].1.contains("`Vdd`"));
        assert_eq!(schematic.skipped[2].0, 5);
        assert!(schematic.skipped[2].1.contains(".ends"));
    }

    #[test]
    fn hostile_dimensions_are_typed_errors_not_panics() {
        // Each edit rewrites the first occurrence in the fixture (M1's
        // W/L/NF, M5's NF=4, the capacitor card).
        // `param` names the rejected dimension; "area" marks a footprint
        // above the ceiling.
        for (from, to, param) in [
            ("W=8u", "W=inf", "W"),
            ("W=8u", "W=0", "W"),
            ("W=8u", "W=-8u", "W"),
            ("W=8u", "W=nanu", "W"),
            ("L=0.5u", "L=0", "L"),
            ("NF=2", "NF=0", "NF"),
            ("NF=4", "NF=4 M=0", "M"),
            ("C1 out 0 1.0", "C1 out 0 -1.0", "value"),
            ("C1 out 0 1.0", "C1 out 0 0", "value"),
            ("C1 out 0 1.0", "C1 out 0 1.0 W=1e309", "W"),
            ("W=8u", "W=1e30", "area"),
            ("NF=4", "NF=4 M=1e12", "area"),
            ("C1 out 0 1.0", "C1 out 0 1e30", "area"),
            ("C1 out 0 1.0", "D1 out 0 dmod W=1e5 L=1e5", "area"),
        ] {
            assert!(FIVE_T_OTA.contains(from), "fixture lost `{from}`");
            let text = FIVE_T_OTA.replacen(from, to, 1);
            let err = std::panic::catch_unwind(|| parse_spice("hostile", &text))
                .unwrap_or_else(|_| panic!("parse_spice panicked on `{to}`"))
                .expect_err(to);
            match &err {
                SpiceError::InvalidDimension { param: p, .. } => {
                    assert_eq!(*p, param, "`{to}`: {err}");
                    assert!(err.to_string().contains(param), "{err}");
                }
                SpiceError::FootprintTooLarge { .. } => {
                    assert_eq!(param, "area", "`{to}`: {err}");
                    assert!(err.to_string().contains("ceiling"), "{err}");
                }
                _ => panic!("`{to}`: untyped dimension error {err}"),
            }
        }
        // A device just under the ceiling (~9.3e7 µm²) still parses.
        let text = FIVE_T_OTA.replacen("C1 out 0 1.0", "D1 out 0 dmod W=1e4 L=8e3", 1);
        assert!(parse_spice("ceiling", &text).is_ok());
    }

    #[test]
    fn error_messages_mention_line_numbers() {
        let err = parse_spice("bad", "\n\nM9 a b\n").unwrap_err();
        assert!(err.to_string().contains("line 3"));
    }
}
