// Package energy models the "batteryless" premise of the paper's
// abstract: the tag's operating energy "is low enough that it can be
// harvested from the environment without having a battery". It provides
// harvester models (RF rectification of the reader's own carrier, plus
// ambient light and motion sources) and a duty-cycle planner: the
// fraction of time a harvest budget lets the tag modulate.
package energy

import "github.com/mmtag/mmtag/internal/units"

// Harvester is any ambient energy source.
type Harvester interface {
	// Name identifies the source.
	Name() string
	// PowerW returns the continuous harvest power in watts.
	PowerW() float64
}

// RFHarvester rectifies the reader's incident carrier — the classic
// RFID-style supply, and the only one that needs no extra transducer.
type RFHarvester struct {
	// IncidentDBm is the RF power captured by the tag's aperture.
	IncidentDBm float64
	// Efficiency is the rectifier's RF→DC conversion efficiency at this
	// input level (modern 24 GHz rectennas: 0.05–0.35 depending on
	// drive).
	Efficiency float64
	// SensitivityDBm is the rectifier's turn-on threshold; below it the
	// harvest is zero (typical CMOS rectifiers: −20 dBm).
	SensitivityDBm float64
}

// Name implements Harvester.
func (RFHarvester) Name() string { return "RF (reader carrier)" }

// PowerW implements Harvester.
func (h RFHarvester) PowerW() float64 {
	if h.IncidentDBm < h.SensitivityDBm {
		return 0
	}
	return units.DBmToWatts(h.IncidentDBm) * h.Efficiency
}

// IncidentAtTagDBm returns the one-way power the tag's aperture captures
// from a reader with EIRP eirpDBm at range r: Friis with the tag's
// aperture gain.
func IncidentAtTagDBm(eirpDBm, tagGainDBi, rangeM, lambda float64) float64 {
	return eirpDBm + tagGainDBi - units.FSPLDB(rangeM, lambda)
}

// LightHarvester is a small photovoltaic cell under indoor illuminance.
type LightHarvester struct {
	// AreaCM2 is the cell area in cm².
	AreaCM2 float64
	// IndoorLux is the ambient illuminance (office: 300–500 lux).
	IndoorLux float64
	// EfficiencyUWPerCM2PerKLux is the cell's indoor figure of merit
	// (amorphous Si: ~10 µW/cm²/klux).
	EfficiencyUWPerCM2PerKLux float64
}

// Name implements Harvester.
func (LightHarvester) Name() string { return "photovoltaic" }

// PowerW implements Harvester.
func (h LightHarvester) PowerW() float64 {
	return h.AreaCM2 * (h.IndoorLux / 1000) * h.EfficiencyUWPerCM2PerKLux * 1e-6
}

// MotionHarvester is a piezo/electromagnetic scavenger on a moving host.
type MotionHarvester struct {
	// AverageUW is the long-run average harvest in µW (wearables:
	// 10–100 µW).
	AverageUW float64
}

// Name implements Harvester.
func (MotionHarvester) Name() string { return "motion" }

// PowerW implements Harvester.
func (h MotionHarvester) PowerW() float64 { return h.AverageUW * 1e-6 }

// Composite sums several sources.
type Composite []Harvester

// Name implements Harvester.
func (Composite) Name() string { return "composite" }

// PowerW implements Harvester.
func (c Composite) PowerW() float64 {
	var p float64
	for _, h := range c {
		p += h.PowerW()
	}
	return p
}

// Budget plans duty-cycled operation: harvest continuously, burst when
// the capacitor allows.
type Budget struct {
	Harvest Harvester
	// ActiveW is the tag's power draw while modulating (from
	// tag.EnergyModel.PowerAtBitrateW).
	ActiveW float64
}

// DutyCycle returns the sustainable fraction of time the tag can be
// active: harvest/active, capped at 1. Zero active draw returns 1.
func (b Budget) DutyCycle() float64 {
	if b.ActiveW <= 0 {
		return 1
	}
	d := b.Harvest.PowerW() / b.ActiveW
	if d > 1 {
		return 1
	}
	return d
}

// DefaultRectifier returns a 24 GHz rectenna model: 20% efficiency,
// −20 dBm sensitivity.
func DefaultRectifier(incidentDBm float64) RFHarvester {
	return RFHarvester{IncidentDBm: incidentDBm, Efficiency: 0.20, SensitivityDBm: -20}
}
