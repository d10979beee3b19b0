module kyrix/bench

go 1.24

require kyrix v0.0.0

replace kyrix => ../
