package use

import "cyclolinttest/spscdep/dep"

func Run(q *dep.Q) {
	go feed(q)
	go drain(q)
	go q.Put(9) // want `SPSC \(cyclolinttest/spscdep/dep\.Q\)\.ch push has 2 producer origins`
}

func feed(q *dep.Q) { q.Put(1) }

func drain(q *dep.Q) {
	for {
		if _, ok := q.Get(); !ok {
			return
		}
	}
}

func RunHelper(h *dep.H) {
	go h.Fill() // want `SPSC \(cyclolinttest/spscdep/dep\.H\)\.ch push has 2 producer origins`
	go h.Fill()
}
