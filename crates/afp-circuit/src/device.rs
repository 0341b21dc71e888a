//! Primitive circuit devices (transistors, resistors, capacitors, …).
//!
//! Devices are the leaves of the circuit hierarchy. The structure-recognition
//! stage (paper §IV-B) groups devices into *functional blocks*; the
//! floorplanner then places blocks, not devices.

/// Identifier of a device within a [`crate::Schematic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl DeviceId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The physical kind of a primitive device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// N-channel MOSFET.
    Nmos,
    /// P-channel MOSFET.
    Pmos,
    /// Poly or diffusion resistor.
    Resistor,
    /// MIM/MOM capacitor.
    Capacitor,
    /// Junction diode.
    Diode,
    /// Bipolar junction transistor.
    Bjt,
}

impl DeviceKind {
    /// Returns `true` for MOS transistors.
    pub fn is_mos(self) -> bool {
        matches!(self, DeviceKind::Nmos | DeviceKind::Pmos)
    }
}

/// A primitive device instance.
///
/// Geometry is expressed with the parameters a layout generator needs: total
/// gate width, channel length, number of fingers/stripes and multiplier.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Identifier within the parent schematic.
    pub id: DeviceId,
    /// Instance name, e.g. `"N34"` or `"P18"`.
    pub name: String,
    /// Physical device kind.
    pub kind: DeviceKind,
    /// Total gate width (MOS) or body width (passives), in µm.
    pub width_um: f64,
    /// Channel length (MOS) or body length (passives), in µm.
    pub length_um: f64,
    /// Number of fingers / stripes the device is folded into.
    pub fingers: u32,
    /// Device multiplier (parallel copies).
    pub multiplier: u32,
}

impl Device {
    /// Creates a device with a multiplier of one.
    pub fn new(
        id: DeviceId,
        name: impl Into<String>,
        kind: DeviceKind,
        width_um: f64,
        length_um: f64,
        fingers: u32,
    ) -> Self {
        Device {
            id,
            name: name.into(),
            kind,
            width_um,
            length_um,
            fingers: fingers.max(1),
            multiplier: 1,
        }
    }

    /// Approximate active area of the device in µm², including a fixed
    /// per-finger diffusion overhead so folded devices are not free.
    pub fn area_um2(&self) -> f64 {
        let finger_overhead = 0.2 * self.length_um;
        let per_finger_width = self.width_um / self.fingers as f64;
        let w_total = (per_finger_width + finger_overhead) * self.fingers as f64;
        w_total * self.length_um * self.multiplier as f64
    }

    /// Returns `true` if `self` and `other` are electrically matched devices
    /// (same kind, same W, L and fingers within a small tolerance), which is
    /// the precondition for symmetry constraints.
    pub fn is_matched_with(&self, other: &Device) -> bool {
        self.kind == other.kind
            && relative_close(self.width_um, other.width_um, 1e-6)
            && relative_close(self.length_um, other.length_um, 1e-6)
            && self.fingers == other.fingers
            && self.multiplier == other.multiplier
    }
}

fn relative_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos(id: usize, w: f64, l: f64, fingers: u32) -> Device {
        Device::new(DeviceId(id), format!("N{id}"), DeviceKind::Nmos, w, l, fingers)
    }

    #[test]
    fn area_scales_with_width_and_multiplier() {
        let a = nmos(0, 10.0, 0.5, 1);
        let b = nmos(1, 20.0, 0.5, 1);
        assert!(b.area_um2() > a.area_um2());
        let mut c = nmos(2, 10.0, 0.5, 1);
        c.multiplier = 2;
        assert!((c.area_um2() - 2.0 * a.area_um2()).abs() < 1e-9);
    }

    #[test]
    fn folding_adds_overhead() {
        let flat = nmos(0, 16.0, 0.5, 1);
        let folded = nmos(1, 16.0, 0.5, 4);
        assert!(folded.area_um2() > flat.area_um2());
    }

    #[test]
    fn matched_devices_detected() {
        let a = nmos(0, 8.0, 0.4, 2);
        let b = nmos(1, 8.0, 0.4, 2);
        let c = nmos(2, 9.0, 0.4, 2);
        assert!(a.is_matched_with(&b));
        assert!(!a.is_matched_with(&c));
    }

    #[test]
    fn mos_predicate() {
        assert!(DeviceKind::Pmos.is_mos());
        assert!(!DeviceKind::Capacitor.is_mos());
    }
}
