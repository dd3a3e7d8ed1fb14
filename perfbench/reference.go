package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The speed of this benchmark's host drifts by tens of percent over
// seconds to minutes (README.md, "Host and noise"), more than a run can
// average out. So the runner times a fixed reference workload between
// rounds, in its own process, and reports every host time rescaled to
// the speed at which that reference takes refNominal. A change to the
// program cannot change the reference, so a slower program still reads
// slower; a slower host does not.

// refNominal is the reference workload's time at the speed the host
// times are reported at: about its median on the host the bounds were
// set on.
const refNominal = 0.040

// speedGauge measures the host speed around each round. Each timing
// runs in a process of its own, so the reference's heap and collector
// never touch the runner or the rounds it starts.
type speedGauge struct{ last float64 }

func newSpeedGauge() (*speedGauge, error) {
	t, err := timeReference()
	return &speedGauge{last: t}, err
}

// factor times the reference again and returns refNominal over the
// mean of this and the previous timing: the factor that rescales the
// round between them to the reference speed.
func (g *speedGauge) factor() (float64, error) {
	now, err := timeReference()
	f := refNominal / ((g.last + now) / 2)
	g.last = now
	return f, err
}

// timeReference runs this binary's ref mode and returns its timing.
func timeReference() (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "ref")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("reference: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// refMain prints the reference workload's time, after one untimed pass
// that faults in the code and the heap.
func refMain() int {
	referenceSeconds()
	fmt.Println(referenceSeconds())
	return 0
}

// referenceSeconds times a fixed piece of work that does not depend on
// the program: square roots and min/max over strips (the shape of the
// foveation integral), then small allocations, a map and a sort over a
// few megabytes (the shape of the event engine and session set-up).
func referenceSeconds() float64 {
	t := time.Now()
	acc := 0.0
	for r := 0; r < 2000; r++ {
		e := 5 + float64(r%80)
		for i := 0; i < 128; i++ {
			y := -e + (float64(i)+0.5)*2*e/128
			if h := e*e - y*y; h > 0 {
				s := math.Sqrt(h)
				acc += math.Min(s, 55) - math.Max(-s, -55)
			}
		}
	}
	type node struct {
		at   float64
		next *node
	}
	m := make(map[int]*node)
	var head *node
	for i := 0; i < 60000; i++ {
		n := &node{at: math.Mod(float64(i)*7919.5, 104729), next: head}
		head = n
		m[(i*2654435761)%200003] = n
	}
	xs := make([]float64, 0, len(m))
	for _, n := range m {
		xs = append(xs, n.at)
	}
	sort.Float64s(xs)
	for n := head; n != nil; n = n.next {
		acc += n.at
	}
	keep += acc + xs[len(xs)/2]
	return time.Since(t).Seconds()
}
