//! Automatic structure recognition.
//!
//! The paper uses Infineon's GCN + K-means structure recognition tool \[21\] to
//! detect functional blocks in the input schematic (pipeline step 2, Fig. 1).
//! That tool is proprietary, so [`recognize`] stands in for it with a
//! deterministic rule-based matcher for the classic analog structures
//! (differential pairs, current mirrors, cascodes, output stages, passives).
//! It produces the same artefact — a grouping of devices into typed
//! functional blocks — and feeds the same downstream floorplanner, so the
//! substitution does not change the behaviour being reproduced.

use crate::block::{Block, BlockId, BlockKind};
use crate::constraint::{Axis, Constraint, SymmetryGroup};
use crate::device::{DeviceId, DeviceKind};
use crate::net::{Net, NetClass, NetId, Pin};
use crate::netlist::{Circuit, Schematic};

/// Groups the devices of a schematic into typed functional blocks and builds
/// the corresponding block-level [`Circuit`], including symmetry constraints
/// for recognized matched structures.
pub fn recognize(schematic: &Schematic) -> Circuit {
    let n = schematic.devices.len();
    let mut assigned = vec![false; n];
    let mut groups: Vec<(BlockKind, Vec<DeviceId>)> = Vec::new();

    // 1. Differential pairs: matched same-kind MOS devices sharing a source
    //    net but driven by different gate nets.
    for i in 0..n {
        if assigned[i] {
            continue;
        }
        for j in (i + 1)..n {
            if assigned[j] {
                continue;
            }
            let (a, b) = (&schematic.devices[i], &schematic.devices[j]);
            if !a.kind.is_mos() || !a.is_matched_with(b) {
                continue;
            }
            let a_src = schematic.nets_on_terminal(a.id, "s");
            let b_src = schematic.nets_on_terminal(b.id, "s");
            let a_gate = schematic.nets_on_terminal(a.id, "g");
            let b_gate = schematic.nets_on_terminal(b.id, "g");
            let shares_source = a_src.iter().any(|s| b_src.contains(s));
            let different_gates = !a_gate.is_empty() && a_gate != b_gate;
            if shares_source && different_gates {
                assigned[i] = true;
                assigned[j] = true;
                groups.push((BlockKind::DifferentialPair, vec![a.id, b.id]));
                break;
            }
        }
    }

    // 2. Current mirrors: same-kind MOS devices whose gates share a net with a
    //    diode-connected reference device (gate net == drain net of the ref).
    for i in 0..n {
        if assigned[i] {
            continue;
        }
        let ref_dev = &schematic.devices[i];
        if !ref_dev.kind.is_mos() {
            continue;
        }
        let gate = schematic.nets_on_terminal(ref_dev.id, "g");
        let drain = schematic.nets_on_terminal(ref_dev.id, "d");
        let diode_connected = gate.iter().any(|g| drain.contains(g));
        if !diode_connected {
            continue;
        }
        let mut members = vec![ref_dev.id];
        for (j, cand) in schematic.devices.iter().enumerate() {
            if j == i || assigned[j] {
                continue;
            }
            if cand.kind != ref_dev.kind {
                continue;
            }
            let cand_gate = schematic.nets_on_terminal(cand.id, "g");
            if cand_gate.iter().any(|g| gate.contains(g)) {
                members.push(cand.id);
            }
        }
        if members.len() >= 2 {
            for m in &members {
                assigned[m.index()] = true;
            }
            groups.push((BlockKind::CurrentMirror, members));
        }
    }

    // 3. Cascodes: an unassigned MOS whose source net equals the drain net of
    //    another (possibly assigned) MOS of the same kind.
    for (i, dev) in schematic.devices.iter().enumerate() {
        if assigned[i] {
            continue;
        }
        if !dev.kind.is_mos() {
            continue;
        }
        let src = schematic.nets_on_terminal(dev.id, "s");
        let stacked = (0..n).any(|j| {
            if j == i {
                return false;
            }
            let other = &schematic.devices[j];
            other.kind == dev.kind
                && schematic
                    .nets_on_terminal(other.id, "d")
                    .iter()
                    .any(|d| src.contains(d))
        });
        if stacked {
            assigned[i] = true;
            groups.push((BlockKind::Cascode, vec![dev.id]));
        }
    }

    // 4. Everything else becomes a single-device block typed by device kind.
    for (i, dev) in schematic.devices.iter().enumerate() {
        if assigned[i] {
            continue;
        }
        let kind = match dev.kind {
            DeviceKind::Nmos | DeviceKind::Pmos => BlockKind::CommonSource,
            DeviceKind::Resistor => BlockKind::ResistorBank,
            DeviceKind::Capacitor => BlockKind::CapacitorBank,
            DeviceKind::Diode | DeviceKind::Bjt => BlockKind::BiasGenerator,
        };
        assigned[i] = true;
        groups.push((kind, vec![dev.id]));
    }

    build_circuit_from_groups(schematic, &groups)
}

/// Builds the block-level circuit from explicit device groups (used by both
/// the rule-based and the clustering recognition paths).
pub fn build_circuit_from_groups(
    schematic: &Schematic,
    groups: &[(BlockKind, Vec<DeviceId>)],
) -> Circuit {
    let mut circuit = Circuit::new(format!("{}-blocks", schematic.name));
    let mut device_to_block = vec![None; schematic.devices.len()];

    for (kind, members) in groups {
        let id = BlockId(circuit.blocks.len());
        let area: f64 = members
            .iter()
            .map(|d| schematic.devices[d.index()].area_um2())
            .sum();
        let stripe = members
            .iter()
            .map(|d| {
                let dev = &schematic.devices[d.index()];
                dev.width_um / dev.fingers.max(1) as f64
            })
            .fold(0.0f64, f64::max);
        let name = members
            .iter()
            .map(|d| schematic.devices[d.index()].name.clone())
            .collect::<Vec<_>>()
            .join("_");
        let mut pins = 0u32;
        for d in members {
            pins += schematic
                .connections
                .iter()
                .filter(|(_, p)| p.iter().any(|(dd, _)| dd == d))
                .count() as u32;
        }
        let block = Block::new(id, name, *kind, area.max(1e-3), pins.max(2))
            .with_stripe_width(stripe.max(0.1))
            .with_devices(members.clone());
        for d in members {
            device_to_block[d.index()] = Some(id);
        }
        circuit.blocks.push(block);
    }

    // Block-level nets: one per schematic net spanning at least two blocks.
    for (net_name, pins) in &schematic.connections {
        let mut blocks_touched: Vec<BlockId> = Vec::new();
        for (d, _) in pins {
            if let Some(b) = device_to_block[d.index()] {
                if !blocks_touched.contains(&b) {
                    blocks_touched.push(b);
                }
            }
        }
        if blocks_touched.len() < 2 {
            continue;
        }
        let class = classify_net(net_name);
        let id = NetId(circuit.nets.len());
        let net_pins = blocks_touched
            .iter()
            .map(|b| Pin::new(*b, net_name.clone()))
            .collect();
        circuit
            .nets
            .push(Net::new(id, net_name.clone(), net_pins).with_class(class));
    }

    // Symmetry constraints: matched pairs of same-kind, same-area blocks, plus
    // self-symmetry of recognized differential pairs.
    let mut used = vec![false; circuit.blocks.len()];
    let mut group = SymmetryGroup::new(Axis::Vertical);
    for (i, block) in circuit.blocks.iter().enumerate() {
        if block.kind == BlockKind::DifferentialPair {
            group = group.with_self_symmetric(BlockId(i));
            used[i] = true;
        }
    }
    for i in 0..circuit.blocks.len() {
        if used[i] {
            continue;
        }
        for j in (i + 1)..circuit.blocks.len() {
            if used[j] {
                continue;
            }
            let (a, b) = (&circuit.blocks[i], &circuit.blocks[j]);
            let matched = a.kind == b.kind
                && a.devices.len() == b.devices.len()
                && (a.area_um2 - b.area_um2).abs() <= 1e-6 * a.area_um2.max(b.area_um2).max(1.0);
            if matched && a.kind != BlockKind::CapacitorBank {
                group = group.with_pair(BlockId(i), BlockId(j));
                used[i] = true;
                used[j] = true;
                break;
            }
        }
    }
    if !group.is_empty() {
        circuit.constraints.push(Constraint::Symmetry(group));
    }
    circuit
}

/// Classifies a net by its name (supply and bias nets follow strong naming
/// conventions in industrial netlists).
pub fn classify_net(name: &str) -> NetClass {
    let lower = name.to_ascii_lowercase();
    if lower.contains("vdd") || lower.contains("vcc") {
        NetClass::Power
    } else if lower.contains("vss") || lower.contains("gnd") {
        NetClass::Ground
    } else if lower.contains("bias") || lower.contains("ref") {
        NetClass::Bias
    } else if lower.contains("clk") || lower.contains("clock") {
        NetClass::Clock
    } else {
        NetClass::Signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;

    /// A small 5-transistor OTA schematic: tail source, diff pair, mirror load.
    fn five_t_ota() -> Schematic {
        let mut s = Schematic::new("5T-OTA");
        let n1 = s.add_device(Device::new(DeviceId(0), "N1", DeviceKind::Nmos, 8.0, 0.5, 2));
        let n2 = s.add_device(Device::new(DeviceId(0), "N2", DeviceKind::Nmos, 8.0, 0.5, 2));
        let p1 = s.add_device(Device::new(DeviceId(0), "P1", DeviceKind::Pmos, 12.0, 0.5, 2));
        let p2 = s.add_device(Device::new(DeviceId(0), "P2", DeviceKind::Pmos, 12.0, 0.5, 2));
        let nt = s.add_device(Device::new(DeviceId(0), "NT", DeviceKind::Nmos, 16.0, 1.0, 4));
        s.connect("inp", vec![(n1, "g")]);
        s.connect("inn", vec![(n2, "g")]);
        s.connect("tail", vec![(n1, "s"), (n2, "s"), (nt, "d")]);
        s.connect("outl", vec![(n1, "d"), (p1, "d"), (p1, "g"), (p2, "g")]);
        s.connect("out", vec![(n2, "d"), (p2, "d")]);
        s.connect("vdd", vec![(p1, "s"), (p2, "s")]);
        s.connect("vss", vec![(nt, "s")]);
        s.connect("vbias", vec![(nt, "g")]);
        s
    }

    #[test]
    fn recognizes_diff_pair_and_mirror() {
        let circuit = recognize(&five_t_ota());
        let kinds: Vec<BlockKind> = circuit.blocks.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&BlockKind::DifferentialPair), "{kinds:?}");
        assert!(kinds.contains(&BlockKind::CurrentMirror), "{kinds:?}");
        // 5 devices → 3 blocks (DP, CM, tail).
        assert_eq!(circuit.num_blocks(), 3);
        circuit.validate().unwrap();
    }

    #[test]
    fn block_areas_sum_to_device_areas() {
        let s = five_t_ota();
        let circuit = recognize(&s);
        let dev_area: f64 = s.devices.iter().map(|d| d.area_um2()).sum();
        assert!((circuit.total_block_area() - dev_area).abs() < 1e-9);
    }

    #[test]
    fn block_nets_connect_blocks() {
        let circuit = recognize(&five_t_ota());
        assert!(circuit.num_nets() >= 2);
        for net in &circuit.nets {
            assert!(net.blocks().len() >= 2);
        }
    }

    #[test]
    fn diff_pair_gets_self_symmetry() {
        let circuit = recognize(&five_t_ota());
        let dp = circuit
            .blocks
            .iter()
            .find(|b| b.kind == BlockKind::DifferentialPair)
            .unwrap();
        assert_eq!(circuit.constraints.len(), 1);
        let members: Vec<BlockId> = circuit.constraints.iter().next().unwrap().members();
        assert!(members.contains(&dp.id));
    }

    #[test]
    fn net_classification_by_name() {
        assert_eq!(classify_net("vdd_core"), NetClass::Power);
        assert_eq!(classify_net("VSS"), NetClass::Ground);
        assert_eq!(classify_net("ibias_10u"), NetClass::Bias);
        assert_eq!(classify_net("clk_out"), NetClass::Clock);
        assert_eq!(classify_net("vout"), NetClass::Signal);
    }
}
