package main

import (
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// median of the values (0 for none).
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the nearest-rank q-quantile of the values (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile: the mean of
// all order statistics, weighted by the Beta((n+1)q, (n+1)(1-q)) mass of
// each one's rank interval. Near the tail of a few hundred samples it
// blends the top several values where the nearest rank takes one, so it
// swings far less between runs (0 for none).
func hdQuantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := float64(len(s))
	a, b := (n+1)*q, (n+1)*(1-q)
	sum, prev := 0.0, 0.0
	for i, v := range s {
		cur := betaInc(a, b, float64(i+1)/n)
		sum += (cur - prev) * v
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, 6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is VmHWM (peak resident set) of a process in MiB, read from
// /proc; pid 0 means this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and restarts this process's
// VmHWM from the resulting RSS, so the peak covers only what follows
// (input loading, and generation on a checkout's first run, excluded).
// Where the kernel refuses, the peak includes them.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
