module medsplit/bench

go 1.23

require medsplit v0.0.0

replace medsplit => ../
