module slingshot/bench

go 1.22

require slingshot v0.0.0

replace slingshot => ../
