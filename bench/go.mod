module timedmedia/bench

go 1.22

require timedmedia v0.0.0

replace timedmedia => ../
