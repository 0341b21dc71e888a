//! Operational transconductance amplifier (OTA) generators.
//!
//! These reproduce the *shape* of the industrial OTAs used by the paper
//! (OTA-1 with 5 structures, OTA-2 with 8 structures, plus the 3-structure
//! OTA used for training and for the Table II layout comparison): block
//! counts, functional-structure mix, connectivity and symmetry constraints
//! match the paper's description; absolute dimensions are realistic but
//! synthetic.

use crate::block::BlockKind;
use crate::constraint::Axis;
use crate::device::{Device, DeviceId, DeviceKind};
use crate::net::NetClass;
use crate::netlist::{Circuit, Schematic};

/// Builds an OTA circuit with the requested number of functional blocks.
///
/// Supported sizes are 3, 5 and 8 blocks (the sizes used in the paper's
/// training set and in Table I); other values are clamped to the nearest
/// supported size.
pub fn ota(num_blocks: usize) -> Circuit {
    match num_blocks {
        0..=3 => ota3(),
        4..=6 => ota5(),
        _ => ota8(),
    }
}

/// 3-structure OTA: differential pair, current-mirror load, tail source.
/// Used in the RL training set and in the Table II layout comparison.
pub fn ota3() -> Circuit {
    Circuit::builder("OTA-3")
        .block("DP", BlockKind::DifferentialPair, 58.0, 4)
        .block("CM_LOAD", BlockKind::CurrentMirror, 46.0, 3)
        .block("TAIL", BlockKind::CurrentSource, 30.0, 2)
        .net("inp", &[("DP", "g1"), ("TAIL", "cas")], NetClass::Signal)
        .net("outl", &[("DP", "d1"), ("CM_LOAD", "din")], NetClass::Signal)
        .net("out", &[("DP", "d2"), ("CM_LOAD", "dout")], NetClass::Critical)
        .net("tail", &[("DP", "s"), ("TAIL", "d")], NetClass::Signal)
        .symmetry_v(&[("DP", "DP"), ("CM_LOAD", "CM_LOAD")])
        .build()
        .expect("OTA-3 is valid")
}

/// 5-structure OTA ("OTA-1" in Table I): adds an output stage and a
/// compensation capacitor to the 3-structure core.
pub fn ota5() -> Circuit {
    Circuit::builder("OTA-1")
        .block("DP", BlockKind::DifferentialPair, 58.0, 4)
        .block("CM_LOAD", BlockKind::CurrentMirror, 46.0, 3)
        .block("TAIL", BlockKind::CurrentSource, 30.0, 2)
        .block("OUT_STAGE", BlockKind::OutputStage, 74.0, 3)
        .block("C_COMP", BlockKind::CompensationCap, 90.0, 2)
        .net("inp", &[("DP", "g1"), ("TAIL", "cas")], NetClass::Signal)
        .net("outl", &[("DP", "d1"), ("CM_LOAD", "din")], NetClass::Signal)
        .net(
            "vmid",
            &[("DP", "d2"), ("CM_LOAD", "dout"), ("OUT_STAGE", "g"), ("C_COMP", "a")],
            NetClass::Critical,
        )
        .net("tail", &[("DP", "s"), ("TAIL", "d")], NetClass::Signal)
        .net(
            "vout",
            &[("OUT_STAGE", "d"), ("C_COMP", "b")],
            NetClass::Critical,
        )
        .net(
            "ibias",
            &[("TAIL", "ref"), ("OUT_STAGE", "bias")],
            NetClass::Bias,
        )
        .symmetry_v(&[("DP", "DP"), ("CM_LOAD", "CM_LOAD")])
        .build()
        .expect("OTA-1 is valid")
}

/// 8-structure OTA ("OTA-2" in Table I): the two-stage cascoded OTA drawn in
/// the paper's Fig. 2, with cascode devices, two mirror loads, a differential
/// pair and separate bias devices.
pub fn ota8() -> Circuit {
    Circuit::builder("OTA-2")
        .block("DP", BlockKind::DifferentialPair, 62.0, 4)
        .block("CM_TOP", BlockKind::CurrentMirror, 52.0, 3)
        .block("CASC_L", BlockKind::Cascode, 34.0, 3)
        .block("CASC_R", BlockKind::Cascode, 34.0, 3)
        .block("CM_BOT", BlockKind::CurrentMirror, 48.0, 3)
        .block("TAIL", BlockKind::CurrentSource, 28.0, 2)
        .block("BIAS_N", BlockKind::BiasGenerator, 22.0, 2)
        .block("BIAS_P", BlockKind::BiasGenerator, 24.0, 2)
        .net("inp", &[("DP", "g1"), ("TAIL", "cas")], NetClass::Signal)
        .net("taild", &[("DP", "s"), ("TAIL", "d")], NetClass::Signal)
        .net("dl", &[("DP", "d1"), ("CASC_L", "s")], NetClass::Critical)
        .net("dr", &[("DP", "d2"), ("CASC_R", "s")], NetClass::Critical)
        .net("cl", &[("CASC_L", "d"), ("CM_TOP", "din")], NetClass::Signal)
        .net(
            "vout",
            &[("CASC_R", "d"), ("CM_TOP", "dout"), ("CM_BOT", "dout")],
            NetClass::Critical,
        )
        .net(
            "vb_casc",
            &[("CASC_L", "g"), ("CASC_R", "g"), ("BIAS_P", "out")],
            NetClass::Bias,
        )
        .net(
            "vb_tail",
            &[("TAIL", "g"), ("BIAS_N", "out"), ("CM_BOT", "g")],
            NetClass::Bias,
        )
        .net("bl", &[("CM_BOT", "din"), ("BIAS_N", "ref")], NetClass::Signal)
        .symmetry_v(&[("CASC_L", "CASC_R"), ("DP", "DP"), ("CM_TOP", "CM_TOP")])
        .alignment(Axis::Horizontal, &["CASC_L", "CASC_R"])
        .build()
        .expect("OTA-2 is valid")
}

/// Device-level schematic of the 8-structure OTA of the paper's Fig. 2
/// (instance names follow the figure: N13/N14 differential pair, N32/N33/N34
/// mirrors, P18/P19 loads, N15/N16 cascodes, N21/N8 bias). Used to exercise
/// the structure-recognition path end to end.
pub fn ota8_schematic() -> Schematic {
    let mut s = Schematic::new("OTA-2-schematic");
    let n13 = s.add_device(Device::new(DeviceId(0), "N13", DeviceKind::Nmos, 16.0, 0.6, 4));
    let n14 = s.add_device(Device::new(DeviceId(0), "N14", DeviceKind::Nmos, 16.0, 0.6, 4));
    let p18 = s.add_device(Device::new(DeviceId(0), "P18", DeviceKind::Pmos, 24.0, 0.6, 4));
    let p19 = s.add_device(Device::new(DeviceId(0), "P19", DeviceKind::Pmos, 24.0, 0.6, 4));
    let n15 = s.add_device(Device::new(DeviceId(0), "N15", DeviceKind::Nmos, 12.0, 0.4, 2));
    let n16 = s.add_device(Device::new(DeviceId(0), "N16", DeviceKind::Nmos, 12.0, 0.4, 2));
    let n32 = s.add_device(Device::new(DeviceId(0), "N32", DeviceKind::Nmos, 20.0, 1.0, 4));
    let n33 = s.add_device(Device::new(DeviceId(0), "N33", DeviceKind::Nmos, 20.0, 1.0, 4));
    let n34 = s.add_device(Device::new(DeviceId(0), "N34", DeviceKind::Nmos, 20.0, 1.0, 4));
    let n21 = s.add_device(Device::new(DeviceId(0), "N21", DeviceKind::Nmos, 6.0, 2.0, 1));
    let n8 = s.add_device(Device::new(DeviceId(0), "N8", DeviceKind::Nmos, 6.0, 2.0, 1));

    s.connect("inp", vec![(n13, "g")]);
    s.connect("inn", vec![(n14, "g")]);
    s.connect("tail", vec![(n13, "s"), (n14, "s"), (n32, "d")]);
    s.connect("dl", vec![(n13, "d"), (n15, "s")]);
    s.connect("dr", vec![(n14, "d"), (n16, "s")]);
    s.connect("outl", vec![(n15, "d"), (p18, "d"), (p18, "g"), (p19, "g")]);
    s.connect("out", vec![(n16, "d"), (p19, "d")]);
    s.connect("vb_casc", vec![(n15, "g"), (n16, "g"), (n21, "d"), (n21, "g")]);
    s.connect("vb_mirror", vec![(n32, "g"), (n33, "g"), (n34, "g"), (n34, "d"), (n8, "d")]);
    s.connect("iref", vec![(n8, "g"), (n8, "s")]);
    s.connect("mirror_out", vec![(n33, "d"), (n21, "s")]);
    s.connect("vdd", vec![(p18, "s"), (p19, "s")]);
    s.connect("vss", vec![(n32, "s"), (n33, "s"), (n34, "s")]);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counts_match_table_one() {
        assert_eq!(ota3().num_blocks(), 3);
        assert_eq!(ota5().num_blocks(), 5);
        assert_eq!(ota8().num_blocks(), 8);
    }

    #[test]
    fn dispatch_clamps_sizes() {
        assert_eq!(ota(1).num_blocks(), 3);
        assert_eq!(ota(5).num_blocks(), 5);
        assert_eq!(ota(20).num_blocks(), 8);
    }

    #[test]
    fn all_otas_validate() {
        for c in [ota3(), ota5(), ota8()] {
            c.validate().unwrap();
            assert!(!c.constraints.is_empty(), "{} has constraints", c.name);
            assert!(c.total_block_area() > 0.0);
        }
    }

    #[test]
    fn ota8_has_cascode_symmetry() {
        let c = ota8();
        let casc_l = c.block_by_name("CASC_L").unwrap().id;
        assert!(c.constraints.symmetry_partner(casc_l).is_some());
    }

    #[test]
    fn schematic_recognition_recovers_structures() {
        let circuit = crate::recognition::recognize(&ota8_schematic());
        circuit.validate().unwrap();
        let kinds: Vec<_> = circuit.blocks.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&BlockKind::DifferentialPair));
        assert!(kinds.contains(&BlockKind::CurrentMirror));
        // 11 devices must collapse into fewer blocks.
        assert!(circuit.num_blocks() < 11);
    }
}
