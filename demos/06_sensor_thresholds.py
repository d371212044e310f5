"""Gas-sensor trip points: catalytic bridge, CO quantization, O2 deficiency.

A catalytic bridge outputs 1 V per 2 %vol methane (propane/butane read 1.5x
weaker per %vol).  The alarm trips at 0.5 V, which lands safely below the
lower explosive limit of every supported gas.  CO and O2 channels quantize
to the sensor resolution before comparing against their trip points.

Run: python3 demos/06_sensor_thresholds.py
"""

from loraguard.sensor import (
    CO_RANGE_PPM,
    CO_RESOLUTION_PPM,
    COMBUSTIBLE_ALARM_VOLTS,
    COMBUSTIBLE_GASES,
    LEL_PCT_VOL,
    METHANE_PCT_PER_VOLT,
    O2_RANGE_PCT,
    O2_RESOLUTION_PCT,
    PROPANE_BUTANE_SCALE,
    SensorProfile,
    alarm_check,
    bridge_voltage,
    lel_voltage,
    quantize,
)


def main() -> None:
    profile = SensorProfile()
    print(f"Combustibles (alarm at bridge >= {COMBUSTIBLE_ALARM_VOLTS} V):\n")
    print(f"{'gas':>8} {'LEL':>8} {'V @ LEL':>8} {'trip conc':>10}  headroom")
    for gas in COMBUSTIBLE_GASES:
        pct_per_volt = METHANE_PCT_PER_VOLT
        if gas != "methane":
            pct_per_volt *= PROPANE_BUTANE_SCALE
        trip = COMBUSTIBLE_ALARM_VOLTS * pct_per_volt
        lel = LEL_PCT_VOL[gas]
        print(f"{gas:>8} {lel:>6.1f} % {lel_voltage(gas):>7.2f} V "
              f"{trip:>8.2f} %  alarms at {trip / lel:.0%} of LEL")

    print("\nAround the methane trip point:")
    for conc in (0.99, 1.00, 1.20):
        fired = alarm_check(profile, "methane", conc)
        volts = bridge_voltage("methane", conc)
        print(f"  {conc:.2f} %vol -> {volts:.3f} V -> {'ALARM' if fired else 'quiet'}")

    print(f"\nCO channel (alarm >= {profile.co_alarm_ppm:.0f} ppm, "
          f"{CO_RESOLUTION_PPM:.0f} ppm resolution, "
          f"range {CO_RANGE_PPM[0]:.0f}-{CO_RANGE_PPM[1]:.0f} ppm):")
    for ppm in (98.9, 99.1, 600.0):
        reading, clamped = quantize(ppm, CO_RESOLUTION_PPM, *CO_RANGE_PPM)
        fired = alarm_check(profile, "co", ppm)
        note = " (clamped to range)" if clamped else ""
        print(f"  raw {ppm:>6.1f} ppm -> reading {reading:>5.1f} ppm{note} "
              f"-> {'ALARM' if fired else 'quiet'}")

    print(f"\nO2 deficiency (alarm <= {profile.o2_deficiency_pct:.1f} %, "
          f"{O2_RESOLUTION_PCT:.1f} % resolution):")
    for pct in (20.9, 19.2, 19.3):
        reading, _ = quantize(pct, O2_RESOLUTION_PCT, *O2_RANGE_PCT)
        fired = alarm_check(profile, "o2", pct)
        print(f"  raw {pct:>5.1f} % -> reading {reading:>4.1f} % "
              f"-> {'ALARM' if fired else 'quiet'}")


if __name__ == "__main__":
    main()
