"""EU868 duty-cycle accounting: per-frame off-time vs the sliding hourly window.

End devices follow the off-time rule: after a frame of airtime t on a 1%
sub-band, stay silent on that sub-band for t * (1/0.01 - 1) = 99 t.
Gateways follow the sliding-window rule: at most 36 s of cumulative airtime
in any trailing hour, which permits bursts the off-time rule would forbid.

Run: python3 demos/02_duty_cycle.py
"""

from loraguard.engine import US_PER_SECOND
from loraguard.phy import OfftimeBudget, RadioParams, WindowBudget, airtime_us, default_eu868_plan

HOUR_US = 3_600 * US_PER_SECOND


def main() -> None:
    plan = default_eu868_plan()
    g, g1, g3 = plan.subband("g"), plan.subband("g1"), plan.subband("g3")
    air = airtime_us(RadioParams(sf=9), 37)  # 267.264 ms

    print("Off-time rule (end devices)")
    print(f"  frame: {air / 1000:.3f} ms on sub-band 'g' (1% duty cycle)")
    on_g = OfftimeBudget("ed1", g)
    on_g.record(0, air)
    clear = on_g.clearance(air)
    print(f"  next start on 'g':  t = {clear / 1e6:.3f} s "
          f"(off-time {(clear - air) / 1e6:.3f} s = 99 x airtime)")
    print(f"  next start on 'g1': t = {OfftimeBudget('ed1', g1).clearance(air) / 1e6:.3f} s "
          "(sub-bands account independently)")
    on_g3 = OfftimeBudget("gw", g3)
    on_g3.record(0, air)
    print(f"  same frame on 'g3' (10%): off-time only "
          f"{(on_g3.clearance(air) - air) / 1e6:.3f} s\n")

    print("A saturating off-time sender amortizes to exactly the duty limit:")
    greedy = OfftimeBudget("dev", g)
    now = busy = 0
    for _ in range(1000):
        now = greedy.clearance(now, air)
        greedy.record(now, air)
        busy += air
        now += air
    horizon = greedy.clearance(now)
    print(f"  1000 frames, busy {busy / 1e6:.1f} s over {horizon / 1e6:.1f} s "
          f"-> busy fraction {busy / horizon:.4%} (limit 1%)\n")

    print("Sliding-window rule (gateways): 36 s budget per trailing hour on 'g'")
    gw = WindowBudget("gw1", g)
    t = 0
    for i in range(36):
        t = gw.clearance(t, US_PER_SECOND)
        gw.record(t, US_PER_SECOND)
        t += US_PER_SECOND
    print(f"  36 back-to-back 1 s downlinks accepted (ends at t = {t / 1e6:.0f} s)")
    clearance = gw.clearance(t, US_PER_SECOND)
    print(f"  37th must wait until t = {clearance / 1e6:.0f} s — one hour after the")
    print("  first frame's end, when that second of budget leaves the window.")
    print("  (The off-time rule would have spread those 36 s over 59.4 minutes.)")


if __name__ == "__main__":
    main()
