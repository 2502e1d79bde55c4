module scaddar/bench

go 1.22

require scaddar v0.0.0

replace scaddar => ../
